// Static RNG stream-derivation graph: the determinism auditor's model.
//
// Every Monte-Carlo estimate in the paper reproduction (Fig 5a variance
// points, Fig 5b/c training curves, sweep error bars) is scientifically
// valid only if the RNG streams feeding its cells are independent — the
// property Kashif & Shafique 2024 show is easy to silently violate, and
// the one PRs 2 and 7 claim to preserve at any shard count and crash
// schedule. Those claims are enforced by runtime tests; this header proves
// them *statically*: given an experiment's options, it enumerates every
// `Rng::child` derivation the run will perform (root seed → per-cell
// streams → per-circuit structure/parameter leaves, through
// derive_child_seed — the exact arithmetic Rng::child uses) and checks the
// resulting graph against the QD100-series determinism rules. The graphs'
// cells and leaves come from the cell plan (bp/cell_plan.hpp) the runners
// execute, so the audit checks the runner's own enumeration:
//
//   QD100  error    stream collision: two leaf streams that must be
//                   independent derive the same seed (same child-index
//                   path, or a genuine hash collision). The deliberate
//                   exception is the variance experiment's structure
//                   stream, shared across initializers by design so every
//                   strategy sees the same sampled circuits.
//   QD101  error    cross-run seed aliasing: two runs presented as
//                   independent (sweep repetitions, distinct requests)
//                   share a root seed — identical fingerprints mean the
//                   very same computation counted twice (error);
//                   different fingerprints drawing from one root stream
//                   are correlated estimates (warning). Generalizes
//                   QB007 beyond a single run, keyed by fingerprints.
//   QD102  error    fingerprint insensitivity: perturbing a
//                   result-affecting option field does not move the
//                   canonical options fingerprint, so a stale checkpoint
//                   or cache entry computed under different options would
//                   be restored as if it matched. (Deliberately
//                   non-result-affecting fields — keep_samples,
//                   deadline_seconds — moving the fingerprint is the dual
//                   defect, reported as a warning: every cache entry
//                   would be needlessly invalidated.)
//   QD103  error    cache-key coverage: a cell key fails to cover a
//                   result-affecting input of its cell — duplicate cell
//                   keys over distinct stream leaves within one run
//                   (checkpoint resume restores the wrong cell), or, at
//                   the serve layer (serve/audit.hpp), a field the
//                   `fingerprint|cell` cache key distinguishes but the
//                   worker-visible options encoding drops (workers would
//                   compute defaults and poison the cache namespace).
//
// The store-auditor rules QD110+ (store_audit.hpp) share the registry
// below; `qbarren audit --rules` prints the whole family.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qbarren/analysis/lint.hpp"
#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"

namespace qbarren {

/// What a leaf stream is consumed for.
enum class StreamRole {
  kStructure,  ///< circuit structure draws (rotation axes)
  kParam,      ///< parameter draws (initializer input)
};

/// "structure" / "param".
[[nodiscard]] const char* stream_role_name(StreamRole role) noexcept;

/// One leaf of the derivation tree: a stream some code path actually draws
/// from, identified by the child-index path from the run's root seed. The
/// leaf owns no heap memory: its path is stored inline and its cell label
/// lives in the graph's label table.
struct StreamLeaf {
  StreamRole role = StreamRole::kParam;
  /// True for the variance structure streams: sharing them across
  /// initializers is the experiment's design ("every strategy sees the
  /// same 200 circuits"), not a collision.
  bool shared_by_design = false;
  /// Number of used entries in `index`.
  std::uint8_t depth = 0;
  /// Index of the leaf's cell label in StreamGraph::cell_labels.
  std::uint32_t cell = 0;
  /// Child indices from the root, in derivation order (first `depth`).
  std::array<std::uint64_t, kMaxStreamDepth> index{};
  /// The Rng seed at the end of the path (derive_child_seed folded along
  /// it) — the identity QD100 checks for collisions.
  std::uint64_t seed = 0;

  [[nodiscard]] std::span<const std::uint64_t> path() const noexcept {
    return {index.data(), depth};
  }
};

/// The complete stream derivation of one run, plus the metadata the
/// cross-run rules need (fingerprint, cell enumeration, engine ladder).
struct StreamGraph {
  std::string label;        ///< "variance", "rep=3", a request id, ...
  std::string fingerprint;  ///< canonical options fingerprint of the run
  std::uint64_t root_seed = 0;
  /// The keys of the run's cell plan, in its order, duplicates preserved
  /// (QD103 flags them).
  std::vector<std::string> cells;
  /// Cell labels the leaves point into (StreamLeaf::cell). A variance
  /// graph adds, per qubit count, its wildcard label "q=8/init=*" (the
  /// structure streams, shared across initializers by design) and then its
  /// cell keys ("q=8/init=he"); a training graph adds its cell keys.
  std::vector<std::string> cell_labels;
  std::vector<StreamLeaf> leaves;
  /// Gradient engine selected per non-finite retry attempt (attempt 0 =
  /// the configured engine, attempt > 0 = the parameter-shift fallback).
  /// Retries replay the *same* leaf streams — the ladder is cell metadata,
  /// never a new derivation, which is exactly why a redispatched cell is
  /// bit-identical.
  std::vector<std::string> engine_ladder;

  /// The cell label of `leaf`; throws std::out_of_range on a bad index.
  [[nodiscard]] const std::string& cell_of(const StreamLeaf& leaf) const {
    return cell_labels.at(leaf.cell);
  }
};

/// Derivation graph of a variance run over the paper initializers'
/// variance_cell_plan: per qubit index and sampled circuit, one structure
/// leaf shared across initializers and one parameter leaf per cell.
[[nodiscard]] StreamGraph variance_stream_graph(
    const VarianceExperimentOptions& options,
    const std::string& label = "variance");

/// Derivation graph of a training run's training_cell_plan: one
/// parameter leaf per cell.
[[nodiscard]] StreamGraph training_stream_graph(
    const TrainingExperimentOptions& options,
    const std::string& label = "training");

/// One graph per repetition of the sweep_cell_plan, labelled
/// repetition_label(r) and rooted at that repetition's seed. This enumerator
/// also backs lint's QB007 preflight, so the sweep runner, the linter, and
/// the auditor can never disagree about which seeds a sweep draws.
[[nodiscard]] std::vector<StreamGraph> sweep_stream_graphs(
    const TrainingSweepOptions& options);

/// QD100 + QD103 over one run's graph. QD100 runs in time linear in the
/// leaf count: it visits leaves in order and finds each seed's first leaf
/// through one open-addressed hash table, its only allocation.
[[nodiscard]] Diagnostics audit_stream_graph(const StreamGraph& graph,
                                             const LintOptions& options = {});

/// Per-graph QD100/QD103 plus QD101 across the collection (runs presented
/// as independent of each other: sweep repetitions, distinct requests).
[[nodiscard]] Diagnostics audit_stream_graphs(
    const std::vector<StreamGraph>& graphs, const LintOptions& options = {});

// --- fingerprint soundness (QD102/QD103 probes) --------------------------

/// One fingerprint-soundness probe: the canonical fingerprint before and
/// after a single-field perturbation, plus the worker-visible options
/// encoding before/after and the fingerprint recovered by encoding the
/// perturbed options to the wire and parsing them back. The wire fields
/// stay empty where cells never cross an options re-encoding (sweeps).
struct FingerprintProbe {
  std::string field;
  bool expect_move = true;  ///< result-affecting fields must move the print
  std::string base;         ///< fingerprint of the unperturbed options
  std::string perturbed;    ///< fingerprint after the perturbation
  std::string wire_base;       ///< worker-visible encoding before ("" = n/a)
  std::string wire_perturbed;  ///< worker-visible encoding after
  std::string wire_roundtrip;  ///< fingerprint(decode(encode(perturbed)))
};

/// QD102 (and, when wire fields are present, QD103) over a probe set.
/// `label` names the audited artifact in finding locations.
[[nodiscard]] Diagnostics audit_fingerprint_probes(
    const std::vector<FingerprintProbe>& probes, const std::string& label,
    const LintOptions& options = {});

/// One probe per field of an options table (bp/options_table.hpp): the
/// field perturbed from `base`, fingerprinted, encoded, and decoded back.
/// The fingerprint and the codec are generated from the table, so the
/// verdicts depend on the table alone, not on `base`; the audits below
/// probe the defaults.
template <typename Options>
[[nodiscard]] std::vector<FingerprintProbe> options_table_probes(
    const OptionsTable<Options>& table, const Options& base = {});

/// The sweep fingerprint's probes: every training field under "base."
/// plus the repetition count (sweeps never cross the wire).
[[nodiscard]] std::vector<FingerprintProbe> sweep_fingerprint_probes(
    const TrainingSweepOptions& options = {});

// --- one-stop audits ------------------------------------------------------

/// Stream-graph rules for one experiment plus its options table's
/// fingerprint soundness: what `qbarren audit --kind ...` runs.
[[nodiscard]] Diagnostics audit_variance_options(
    const VarianceExperimentOptions& options, const LintOptions& lint = {});
[[nodiscard]] Diagnostics audit_training_options(
    const TrainingExperimentOptions& options, const LintOptions& lint = {});
/// Includes QD101 across the sweep's repetition graphs.
[[nodiscard]] Diagnostics audit_sweep_options(
    const TrainingSweepOptions& options, const LintOptions& lint = {});

/// The QD rule registry (stream rules QD100-QD103 and store-auditor rules
/// QD110-QD115), ordered by code; drives docs and `audit --rules`.
[[nodiscard]] const std::vector<LintRuleInfo>& determinism_rules();

/// Registry as a table: code, severity, what it predicts, source.
[[nodiscard]] Table determinism_rule_table();

}  // namespace qbarren
