#include "qbarren/analysis/stream_graph.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "qbarren/init/registry.hpp"

namespace qbarren {

namespace {

/// Per-rule finding collector with the linter's overflow-folding behavior
/// (same shape as lint.cpp's RuleSink, local to this pass).
class RuleSink {
 public:
  RuleSink(Diagnostics& out, const LintOptions& options, Severity severity,
           std::string code)
      : out_(out),
        enabled_(options.rule_enabled(code)),
        cap_(options.max_findings_per_rule),
        severity_(severity),
        code_(std::move(code)) {}

  void add(std::string message, std::string location) {
    if (!enabled_) return;
    ++total_;
    if (total_ <= cap_) {
      out_.push_back(
          {severity_, code_, std::move(message), std::move(location)});
    }
  }

  void add(Severity severity, std::string message, std::string location) {
    if (!enabled_) return;
    ++total_;
    if (total_ <= cap_) {
      out_.push_back(
          {severity, code_, std::move(message), std::move(location)});
    }
  }

  ~RuleSink() {
    if (total_ > cap_) {
      std::string message = "... and ";
      message += std::to_string(total_ - cap_);
      message += " more ";
      message += code_;
      message += " finding(s) suppressed (max_findings_per_rule = ";
      message += std::to_string(cap_);
      message += ")";
      out_.push_back({severity_, code_, std::move(message), ""});
    }
  }

  RuleSink(const RuleSink&) = delete;
  RuleSink& operator=(const RuleSink&) = delete;

 private:
  Diagnostics& out_;
  bool enabled_;
  std::size_t cap_;
  std::size_t total_ = 0;
  Severity severity_;
  std::string code_;
};

/// Appends the leaf of `path` from `root`. The leaf is built in place and
/// the path read entry by entry: copying a leaf assembled on the stack, or
/// a path just returned by value, stalls store forwarding once per leaf,
/// which made the paper-grid graph build take twice as long.
void add_leaf(StreamGraph& graph, StreamRole role, std::size_t cell,
              std::uint64_t root, const StreamPath& path, bool shared) {
  StreamLeaf& leaf = graph.leaves.emplace_back();
  leaf.role = role;
  leaf.shared_by_design = shared;
  leaf.depth = static_cast<std::uint8_t>(path.depth);
  leaf.cell = static_cast<std::uint32_t>(cell);
  for (std::size_t d = 0; d < path.depth; ++d) leaf.index[d] = path.index[d];
  leaf.seed = path.seed_from(root);
}

std::string path_string(std::span<const std::uint64_t> path) {
  std::string out = "root";
  for (const std::uint64_t index : path) {
    // Appended in two steps: GCC 12 flags "/" + std::to_string(...) with
    // a spurious -Wrestrict (GCC bug 105651).
    out += '/';
    out += std::to_string(index);
  }
  return out;
}

/// The graph of training cells [first, last) of a plan, all drawn under
/// `options.seed`: one parameter leaf per cell.
StreamGraph training_graph(const TrainingExperimentOptions& options,
                           const std::string& label,
                           CellPlan::const_iterator first,
                           CellPlan::const_iterator last) {
  StreamGraph graph;
  graph.label = label;
  graph.fingerprint = options_fingerprint(options);
  graph.root_seed = options.seed;
  graph.engine_ladder = {options.gradient_engine, "parameter-shift"};
  for (; first != last; ++first) {
    add_leaf(graph, StreamRole::kParam, graph.cells.size(), first->seed,
             training_stream_path(first->initializer_index), false);
    graph.cells.push_back(first->key);
    graph.cell_labels.push_back(first->key);
  }
  return graph;
}

}  // namespace

const char* stream_role_name(StreamRole role) noexcept {
  switch (role) {
    case StreamRole::kStructure: return "structure";
    case StreamRole::kParam: return "param";
  }
  return "param";
}

StreamGraph variance_stream_graph(const VarianceExperimentOptions& options,
                                  const std::string& label) {
  StreamGraph graph;
  graph.label = label;
  graph.fingerprint = options_fingerprint(options);
  graph.root_seed = options.seed;
  graph.engine_ladder = {options.gradient_engine, "parameter-shift"};
  const CellPlan plan =
      variance_cell_plan(options, paper_initializer_names());
  const std::size_t circuits = options.circuits_per_point;
  graph.cells.reserve(plan.size());
  graph.cell_labels.reserve(plan.size() + options.qubit_counts.size());
  graph.leaves.reserve(circuits * (plan.size() + options.qubit_counts.size()));
  // The cells of one qubit index are contiguous in the plan. Label
  // `wildcard` is their shared structure streams' "q=<q>/init=*"; label
  // wildcard + 1 + k is the k-th cell's key.
  for (auto first = plan.begin(); first != plan.end();) {
    const std::size_t qi = first->qubit_index;
    const auto last = std::find_if(first, plan.end(), [qi](const PlanCell& c) {
      return c.qubit_index != qi;
    });
    const std::size_t wildcard = graph.cell_labels.size();
    graph.cell_labels.push_back(variance_key(options.qubit_counts[qi], "*"));
    for (auto cell = first; cell != last; ++cell) {
      graph.cells.push_back(cell->key);
      graph.cell_labels.push_back(cell->key);
    }
    for (std::size_t i = 0; i < circuits; ++i) {
      add_leaf(graph, StreamRole::kStructure, wildcard, options.seed,
               structure_stream_path(qi, i), true);
      for (auto cell = first; cell != last; ++cell) {
        add_leaf(graph, StreamRole::kParam,
                 wildcard + 1 + static_cast<std::size_t>(cell - first),
                 cell->seed,
                 parameter_stream_path(qi, i, cell->initializer_index), false);
      }
    }
    first = last;
  }
  return graph;
}

StreamGraph training_stream_graph(const TrainingExperimentOptions& options,
                                  const std::string& label) {
  const CellPlan plan =
      training_cell_plan(options, paper_initializer_names());
  return training_graph(options, label, plan.begin(), plan.end());
}

std::vector<StreamGraph> sweep_stream_graphs(
    const TrainingSweepOptions& options) {
  const CellPlan plan = sweep_cell_plan(options, paper_initializer_names());
  std::vector<StreamGraph> graphs;
  graphs.reserve(options.repetitions);
  // One graph per repetition, over its contiguous cells.
  for (auto first = plan.begin(); first != plan.end();) {
    const std::size_t rep = first->repetition;
    const auto last = std::find_if(first, plan.end(), [rep](const PlanCell& c) {
      return c.repetition != rep;
    });
    TrainingExperimentOptions rep_options = options.base;
    rep_options.seed = first->seed;
    graphs.push_back(
        training_graph(rep_options, repetition_label(rep), first, last));
    first = last;
  }
  return graphs;
}

Diagnostics audit_stream_graph(const StreamGraph& graph,
                               const LintOptions& options) {
  Diagnostics out;
  {
    // QD100: every leaf seed must be unique — each leaf is one distinct
    // derivation path, and the structure streams' intentional sharing is
    // already folded into a single wildcard leaf per sampled circuit.
    // Leaves are visited in order and each repeat is reported against its
    // seed's first leaf, found through an open-addressed table: a power of
    // two at least twice the leaf count, each slot holding a leaf index + 1
    // (0 = empty), probed linearly from a multiplicative hash of the seed.
    // The hash keeps the product's high bits, so forged seeds that share
    // their low bits do not pile into one run of slots.
    RuleSink qd100(out, options, Severity::kError, "QD100");
    const std::vector<StreamLeaf>& leaves = graph.leaves;
    if (leaves.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("audit_stream_graph: too many stream leaves");
    }
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(2 * leaves.size(), 2));
    const int shift = 64 - std::countr_zero(slots);
    std::vector<std::uint32_t> first(slots, 0);
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      const std::uint64_t seed = leaves[j].seed;
      std::size_t slot =
          static_cast<std::size_t>((seed * 0x9E3779B97F4A7C15ull) >> shift);
      while (first[slot] != 0 && leaves[first[slot] - 1].seed != seed) {
        slot = (slot + 1) & (slots - 1);
      }
      if (first[slot] == 0) {
        first[slot] = static_cast<std::uint32_t>(j + 1);
        continue;
      }
      const StreamLeaf& other = leaves[first[slot] - 1];
      const StreamLeaf& leaf = leaves[j];
      qd100.add("stream collision: " +
                    std::string(stream_role_name(other.role)) + " stream of " +
                    graph.cell_of(other) + " (" + path_string(other.path()) +
                    ") and " + stream_role_name(leaf.role) + " stream of " +
                    graph.cell_of(leaf) + " (" + path_string(leaf.path()) +
                    ") derive the same seed — their \"independent\" samples "
                    "would be identical draws",
                "run " + graph.label);
    }
  }
  {
    // QD103 (key coverage): a cell key appearing twice in one enumeration
    // means the key omits a result-affecting input (e.g. duplicated
    // qubit_counts entries: distinct RNG streams, one checkpoint/cache
    // key) — resume or cache restore would serve one cell's results as
    // the other's.
    RuleSink qd103(out, options, Severity::kError, "QD103");
    std::map<std::string, std::size_t> seen;
    for (std::size_t c = 0; c < graph.cells.size(); ++c) {
      const auto [it, inserted] = seen.emplace(graph.cells[c], c);
      if (inserted) continue;
      qd103.add("cell key '" + graph.cells[c] +
                    "' enumerated twice (cells " + std::to_string(it->second) +
                    " and " + std::to_string(c) +
                    "): the key does not cover every result-affecting input, "
                    "so checkpoint resume / cache restore would alias two "
                    "distinct cells",
                "run " + graph.label);
    }
  }
  return out;
}

Diagnostics audit_stream_graphs(const std::vector<StreamGraph>& graphs,
                                const LintOptions& options) {
  Diagnostics out;
  for (const StreamGraph& graph : graphs) {
    Diagnostics per = audit_stream_graph(graph, options);
    out.insert(out.end(), std::make_move_iterator(per.begin()),
               std::make_move_iterator(per.end()));
  }
  // QD101: runs presented as independent must not share root seeds.
  // Identical fingerprints are the degenerate case — byte-identical
  // computations counted as separate evidence; distinct fingerprints
  // sharing a root stream still correlate every draw the runs have in
  // common.
  RuleSink qd101(out, options, Severity::kError, "QD101");
  std::map<std::uint64_t, std::vector<const StreamGraph*>> by_root;
  for (const StreamGraph& graph : graphs) {
    by_root[graph.root_seed].push_back(&graph);
  }
  for (const auto& [root, group] : by_root) {
    for (std::size_t a = 0; a < group.size(); ++a) {
      for (std::size_t b = a + 1; b < group.size(); ++b) {
        const bool identical = group[a]->fingerprint == group[b]->fingerprint;
        qd101.add(
            identical ? Severity::kError : Severity::kWarning,
            "seed aliasing across runs: '" + group[a]->label + "' and '" +
                group[b]->label + "' share root seed " + std::to_string(root) +
                (identical
                     ? " with identical fingerprints — they are the same "
                       "computation presented as independent repetitions"
                     : " under different fingerprints — their overlapping "
                       "derivations are correlated draws, not independent "
                       "estimates"),
            "runs " + group[a]->label + ", " + group[b]->label);
      }
    }
  }
  return out;
}

// --- fingerprint soundness probes ----------------------------------------

Diagnostics audit_fingerprint_probes(
    const std::vector<FingerprintProbe>& probes, const std::string& label,
    const LintOptions& options) {
  Diagnostics out;
  RuleSink qd102(out, options, Severity::kError, "QD102");
  RuleSink qd103(out, options, Severity::kError, "QD103");
  for (const FingerprintProbe& probe : probes) {
    const bool moved = probe.perturbed != probe.base;
    if (probe.expect_move && !moved) {
      qd102.add("fingerprint is blind to result-affecting option '" +
                    probe.field +
                    "': two runs differing only in it share checkpoint/"
                    "cache namespaces, so one run's cells restore as the "
                    "other's",
                label + " option " + probe.field);
    }
    if (!probe.expect_move && moved) {
      qd102.add(Severity::kWarning,
                "non-result-affecting option '" + probe.field +
                    "' moves the fingerprint: checkpoints and cache entries "
                    "are needlessly invalidated across a cosmetic flag",
                label + " option " + probe.field);
    }
    // Wire coverage (serve only): what the worker sees must carry every
    // field the cache key distinguishes, and vice versa.
    if (!probe.expect_move || probe.wire_base.empty()) continue;
    if (moved && probe.wire_perturbed == probe.wire_base) {
      qd103.add("worker-visible options do not carry '" + probe.field +
                    "': workers would compute with the default value while "
                    "the cache files the results under the perturbed "
                    "fingerprint — a poisoned namespace",
                label + " option " + probe.field);
    } else if (!probe.wire_roundtrip.empty() &&
               probe.wire_roundtrip != probe.perturbed) {
      qd103.add("worker-visible options encoding drops or garbles '" +
                    probe.field +
                    "': re-decoding the wire form yields fingerprint " +
                    probe.wire_roundtrip + " instead of " + probe.perturbed,
                label + " option " + probe.field);
    }
    if (!moved && probe.wire_perturbed != probe.wire_base) {
      qd103.add("cache key does not cover '" + probe.field +
                    "': two requests computing different cells share the "
                    "fingerprint|cell namespace — cache poisoning",
                label + " option " + probe.field);
    }
  }
  return out;
}

template <typename Options>
std::vector<FingerprintProbe> options_table_probes(
    const OptionsTable<Options>& table, const Options& base) {
  const std::string fingerprint = options_fingerprint(table, base);
  const std::string wire = options_to_json(table, base).dump(0);
  std::vector<FingerprintProbe> probes;
  for (const OptionField<Options>& field : table.fields) {
    Options perturbed = base;
    field.perturb(perturbed);
    FingerprintProbe probe;
    probe.field = field.key;
    probe.expect_move = field.fingerprint_key != nullptr;
    probe.base = fingerprint;
    probe.perturbed = options_fingerprint(table, perturbed);
    probe.wire_base = wire;
    probe.wire_perturbed = options_to_json(table, perturbed).dump(0);
    probe.wire_roundtrip = options_fingerprint(
        table, options_from_json(table, parse_json(probe.wire_perturbed)));
    probes.push_back(std::move(probe));
  }
  return probes;
}

template std::vector<FingerprintProbe> options_table_probes(
    const OptionsTable<VarianceExperimentOptions>&,
    const VarianceExperimentOptions&);
template std::vector<FingerprintProbe> options_table_probes(
    const OptionsTable<TrainingExperimentOptions>&,
    const TrainingExperimentOptions&);

std::vector<FingerprintProbe> sweep_fingerprint_probes(
    const TrainingSweepOptions& options) {
  const std::string fingerprint = options_fingerprint(options);
  std::vector<FingerprintProbe> probes;
  const auto add = [&](std::string field, bool expect_move,
                       const TrainingSweepOptions& perturbed) {
    FingerprintProbe probe;
    probe.field = std::move(field);
    probe.expect_move = expect_move;
    probe.base = fingerprint;
    probe.perturbed = options_fingerprint(perturbed);
    probes.push_back(std::move(probe));
  };
  for (const OptionField<TrainingExperimentOptions>& field :
       kTrainingOptionsTable.fields) {
    TrainingSweepOptions perturbed = options;
    field.perturb(perturbed.base);
    add(std::string("base.") + field.key, field.fingerprint_key != nullptr,
        perturbed);
  }
  TrainingSweepOptions perturbed = options;
  ++perturbed.repetitions;
  add("repetitions", true, perturbed);
  return probes;
}

// --- one-stop audits ------------------------------------------------------

namespace {

void append(Diagnostics& out, Diagnostics more) {
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

}  // namespace

Diagnostics audit_variance_options(const VarianceExperimentOptions& options,
                                   const LintOptions& lint) {
  Diagnostics out = audit_stream_graph(variance_stream_graph(options), lint);
  append(out, audit_fingerprint_probes(
                   options_table_probes(kVarianceOptionsTable), "variance",
                   lint));
  return out;
}

Diagnostics audit_training_options(const TrainingExperimentOptions& options,
                                   const LintOptions& lint) {
  Diagnostics out = audit_stream_graph(training_stream_graph(options), lint);
  append(out, audit_fingerprint_probes(
                   options_table_probes(kTrainingOptionsTable), "training",
                   lint));
  return out;
}

Diagnostics audit_sweep_options(const TrainingSweepOptions& options,
                                const LintOptions& lint) {
  Diagnostics out = audit_stream_graphs(sweep_stream_graphs(options), lint);
  append(out,
         audit_fingerprint_probes(sweep_fingerprint_probes(), "sweep", lint));
  return out;
}

// --- rule registry --------------------------------------------------------

const std::vector<LintRuleInfo>& determinism_rules() {
  static const std::vector<LintRuleInfo> rules = {
      {"QD100", Severity::kError,
       "stream collision: two cells derive the same (seed, child-index "
       "path), so their \"independent\" samples are identical draws",
       "Kashif & Shafique 2024; PR 2 per-cell child streams"},
      {"QD101", Severity::kError,
       "cross-run seed aliasing: runs presented as independent repetitions "
       "share a root seed (identical fingerprints = error, correlated "
       "overlap = warning)",
       "generalizes QB007 across runs/requests"},
      {"QD102", Severity::kError,
       "fingerprint insensitivity: a result-affecting option field does "
       "not move the canonical fingerprint (stale checkpoints restore as "
       "fresh); cosmetic fields moving it is the warning dual",
       "checkpoint.hpp staleness key; PR 1"},
      {"QD103", Severity::kError,
       "cache-key coverage: the fingerprint|cell key fails to cover a "
       "result-affecting input (duplicate cell keys, or worker-visible "
       "options dropping a fingerprinted field)",
       "serve result cache; PR 7"},
      {"QD110", Severity::kError,
       "store is not a readable qbarren checkpoint (missing file, foreign "
       "magic, unreadable header)",
       "checkpoint format v1"},
      {"QD111", Severity::kError,
       "store format version skew: written by an incompatible build",
       "Checkpoint::kFormatVersion"},
      {"QD112", Severity::kError,
       "torn or malformed record: truncated cell framing, bad payload "
       "line, wrong or missing end marker, trailing bytes",
       "open_salvaging quarantine conditions"},
      {"QD113", Severity::kError,
       "duplicate cell record: a later record silently shadows an earlier "
       "one under strict loading",
       "Checkpoint::load last-wins semantics"},
      {"QD114", Severity::kError,
       "foreign fingerprint: the store was written under different options "
       "than the audited spec",
       "checkpoint staleness rejection; PR 1"},
      {"QD115", Severity::kWarning,
       "orphan cell: a record outside the spec's cell enumeration — "
       "unreachable by the run that owns the store",
       "cell plan (bp/cell_plan.hpp) keys"},
  };
  return rules;
}

Table determinism_rule_table() {
  Table table({"code", "severity", "predicts", "source"});
  for (const LintRuleInfo& rule : determinism_rules()) {
    table.add_row({rule.code, severity_name(rule.severity), rule.summary,
                   rule.reference});
  }
  return table;
}

}  // namespace qbarren
