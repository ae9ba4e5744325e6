// Tests for the static RNG stream-graph auditor (analysis/stream_graph.hpp)
// and its serve bridge (serve/audit.hpp): the graph must mirror the
// runners' derivations exactly, every paper configuration must audit
// clean, and each QD100-QD103 rule needs a fixture that fires it.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>
#include <span>

#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/serve/protocol.hpp"

namespace qbarren {
namespace {

std::size_t count_code(const Diagnostics& diagnostics,
                       const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

bool has_code(const Diagnostics& diagnostics, const std::string& code) {
  return count_code(diagnostics, code) > 0;
}

std::vector<std::string> paper_names() {
  std::vector<std::string> names;
  for (const auto& init : paper_initializers(FanMode::kLayerTensor)) {
    names.push_back(init->name());
  }
  return names;
}

const StreamLeaf* find_leaf(const StreamGraph& graph, StreamRole role,
                            const std::vector<std::uint64_t>& path) {
  for (const StreamLeaf& leaf : graph.leaves) {
    if (leaf.role == role && std::ranges::equal(leaf.path(), path)) {
      return &leaf;
    }
  }
  return nullptr;
}

/// Appends a hand-made leaf, bypassing the runner enumerations, so a test
/// can plant any seed under any cell label and path.
void forge_leaf(StreamGraph& graph, StreamRole role, const std::string& cell,
                std::initializer_list<std::uint64_t> path,
                std::uint64_t seed) {
  StreamLeaf leaf;
  leaf.role = role;
  leaf.cell = static_cast<std::uint32_t>(graph.cell_labels.size());
  graph.cell_labels.push_back(cell);
  leaf.depth = static_cast<std::uint8_t>(path.size());
  std::copy(path.begin(), path.end(), leaf.index.begin());
  leaf.seed = seed;
  graph.leaves.push_back(leaf);
}

/// Leaves 0, 2 and 5 share seed 11 (a 3-way collision); leaves 1 and 4
/// share seed 22 (a separate pair); leaf 3 is unique.
StreamGraph forged_collision_graph() {
  StreamGraph graph;
  graph.label = "forged";
  forge_leaf(graph, StreamRole::kParam, "q=2/init=a", {0, 0, 1}, 11);
  forge_leaf(graph, StreamRole::kParam, "q=2/init=b", {0, 0, 2}, 22);
  forge_leaf(graph, StreamRole::kStructure, "q=2/init=*", {0, 2, 0}, 11);
  forge_leaf(graph, StreamRole::kParam, "init=c", {3}, 33);
  forge_leaf(graph, StreamRole::kParam, "init=d", {4}, 22);
  forge_leaf(graph, StreamRole::kParam, "rep=1/init=e", {1, 5}, 11);
  return graph;
}

std::string collision_message(const std::string& first,
                              const std::string& second) {
  return "stream collision: " + first + " and " + second +
         " derive the same seed — their \"independent\" samples would be "
         "identical draws";
}

// --- derivation fidelity ----------------------------------------------------

TEST(StreamGraph, DeriveChildSeedMatchesRngChild) {
  const Rng root(42);
  EXPECT_EQ(root.child(0).seed(), derive_child_seed(42, 0));
  EXPECT_EQ(root.child(7).seed(), derive_child_seed(42, 7));
  EXPECT_EQ(root.child(3).child(9).seed(),
            derive_child_seed(derive_child_seed(42, 3), 9));
}

TEST(StreamGraph, VarianceGraphMirrorsRunnerDerivation) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4};
  options.circuits_per_point = 3;
  options.seed = 42;
  const StreamGraph graph = variance_stream_graph(options);
  const std::size_t inits = paper_names().size();

  EXPECT_EQ(graph.root_seed, 42u);
  EXPECT_EQ(graph.fingerprint, options_fingerprint(options));
  EXPECT_EQ(graph.cells.size(), 2 * inits);
  // One structure leaf per (qubit point, circuit), one param leaf per
  // (qubit point, circuit, initializer).
  EXPECT_EQ(graph.leaves.size(), 2 * 3 * (1 + inits));

  // compute_variance_cell derives: q_stream = root.child(qi),
  // circuit_stream = q_stream.child(2i), structure = .child(0),
  // param(t) = .child(1 + t).
  const Rng root(options.seed);
  const StreamLeaf* structure =
      find_leaf(graph, StreamRole::kStructure, {1, 4, 0});
  ASSERT_NE(structure, nullptr);
  EXPECT_EQ(structure->seed, root.child(1).child(4).child(0).seed());
  EXPECT_TRUE(structure->shared_by_design);
  EXPECT_EQ(graph.cell_of(*structure), "q=4/init=*");

  const StreamLeaf* param =
      find_leaf(graph, StreamRole::kParam, {0, 2, 1 + 5});
  ASSERT_NE(param, nullptr);
  EXPECT_EQ(param->seed, root.child(0).child(2).child(6).seed());
  EXPECT_FALSE(param->shared_by_design);
  EXPECT_EQ(graph.cell_of(*param), "q=2/init=" + paper_names()[5]);
}

TEST(StreamGraph, PaperGridLeavesMatchRngChildChains) {
  // The full Fig 5a grid (q = 2..10, 200 circuits): 7000 leaves, each
  // seeded by the Rng::child chain of its path and labelled with the cell
  // key the runner files it under.
  serve::RequestSpec spec;
  spec.id = "fig5a";
  spec.kind = serve::SpecKind::kVariance;
  spec.variance.qubit_counts = {2, 4, 6, 8, 10};
  spec.variance.circuits_per_point = 200;
  spec.variance.seed = 7;
  const StreamGraph graph = variance_stream_graph(spec.variance);
  const std::vector<std::string> names = paper_names();
  ASSERT_EQ(graph.leaves.size(), 5u * 200u * (1 + names.size()));

  const CellPlan cells = serve::request_cell_plan(spec);
  ASSERT_EQ(graph.cells.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(graph.cells[c], cells[c].key);
  }

  const Rng root(spec.variance.seed);
  std::size_t mismatches = 0;
  for (const StreamLeaf& leaf : graph.leaves) {
    const std::span<const std::uint64_t> path = leaf.path();
    ASSERT_EQ(path.size(), 3u);
    const std::size_t qi = path[0];
    ASSERT_LT(qi, spec.variance.qubit_counts.size());
    const std::string q = std::to_string(spec.variance.qubit_counts[qi]);
    const bool structure = path[2] == 0;
    EXPECT_EQ(leaf.role,
              structure ? StreamRole::kStructure : StreamRole::kParam);
    EXPECT_EQ(leaf.shared_by_design, structure);
    const Rng chain = root.child(path[0]).child(path[1]).child(path[2]);
    if (leaf.seed != chain.seed()) ++mismatches;
    if (structure) {
      EXPECT_EQ(graph.cell_of(leaf), "q=" + q + "/init=*");
    } else {
      ASSERT_LE(path[2], names.size());
      const std::size_t t = path[2] - 1;
      EXPECT_EQ(graph.cell_of(leaf), cells[qi * names.size() + t].key);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(audit_stream_graph(graph).empty());
}

TEST(StreamGraph, TrainingGraphMirrorsRunnerDerivation) {
  TrainingExperimentOptions options;
  options.seed = 7;
  const StreamGraph graph = training_stream_graph(options);
  const std::vector<std::string> names = paper_names();
  ASSERT_EQ(graph.leaves.size(), names.size());
  // run_training_cell: param_rng = Rng(seed).child(t).
  for (std::size_t t = 0; t < names.size(); ++t) {
    EXPECT_EQ(graph.leaves[t].seed, Rng(7).child(t).seed());
    EXPECT_EQ(graph.cell_of(graph.leaves[t]), "init=" + names[t]);
  }
}

TEST(StreamGraph, SweepGraphsUseRunnersSeedLadder) {
  TrainingSweepOptions options;
  options.base.seed = 123;
  options.repetitions = 4;
  const std::vector<StreamGraph> graphs = sweep_stream_graphs(options);
  ASSERT_EQ(graphs.size(), 4u);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    // run_training_sweep: rep seed = splitmix64(base.seed ^ (rep + 1)).
    EXPECT_EQ(graphs[rep].root_seed, splitmix64(123u ^ (rep + 1)));
    EXPECT_EQ(graphs[rep].label, "rep=" + std::to_string(rep));
    // Cells carry the sweep's per-repetition namespace.
    ASSERT_FALSE(graphs[rep].cells.empty());
    EXPECT_EQ(graphs[rep].cells.front().rfind(graphs[rep].label + "/", 0),
              0u);
  }
}

TEST(StreamGraph, EngineLadderIsMetadataOnly) {
  VarianceExperimentOptions options;
  options.gradient_engine = "adjoint";
  StreamGraph graph = variance_stream_graph(options);
  ASSERT_EQ(graph.engine_ladder.size(), 2u);
  EXPECT_EQ(graph.engine_ladder[0], "adjoint");
  EXPECT_EQ(graph.engine_ladder[1], "parameter-shift");
  // A retry replays the same leaves: changing the ladder must not change
  // any derived seed.
  VarianceExperimentOptions fallback = options;
  fallback.gradient_engine = "parameter-shift";
  const StreamGraph other = variance_stream_graph(fallback);
  ASSERT_EQ(graph.leaves.size(), other.leaves.size());
  for (std::size_t i = 0; i < graph.leaves.size(); ++i) {
    EXPECT_EQ(graph.leaves[i].seed, other.leaves[i].seed);
  }
}

// --- QD100: stream collisions -----------------------------------------------

TEST(StreamGraphQD100, CleanOnEveryPaperConfiguration) {
  // The full Fig 5a grid: q = 2..10, 200 circuits, 50 layers.
  VarianceExperimentOptions variance;
  variance.qubit_counts = {2, 4, 6, 8, 10};
  variance.circuits_per_point = 200;
  EXPECT_TRUE(audit_stream_graph(variance_stream_graph(variance)).empty());

  TrainingExperimentOptions training;
  EXPECT_TRUE(audit_stream_graph(training_stream_graph(training)).empty());

  TrainingSweepOptions sweep;
  sweep.repetitions = 5;
  EXPECT_TRUE(audit_stream_graphs(sweep_stream_graphs(sweep)).empty());
}

TEST(StreamGraphQD100, FlagsCollidingLeaves) {
  StreamGraph graph;
  graph.label = "forged";
  forge_leaf(graph, StreamRole::kParam, "a", {0}, 99);
  forge_leaf(graph, StreamRole::kParam, "b", {1}, 99);
  const Diagnostics diagnostics = audit_stream_graph(graph);
  ASSERT_EQ(count_code(diagnostics, "QD100"), 1u);
  EXPECT_EQ(diagnostics.front().severity, Severity::kError);
}

TEST(StreamGraphQD100, PinsFindingTextLocationAndLeafOrder) {
  // Each repeat names the first leaf with its seed, in leaf order.
  const Diagnostics diagnostics =
      audit_stream_graph(forged_collision_graph());
  const std::string first =
      "param stream of q=2/init=a (root/0/0/1)";
  const std::vector<std::string> expected = {
      collision_message(first, "structure stream of q=2/init=* (root/0/2/0)"),
      collision_message("param stream of q=2/init=b (root/0/0/2)",
                        "param stream of init=d (root/4)"),
      collision_message(first, "param stream of rep=1/init=e (root/1/5)"),
  };
  ASSERT_EQ(diagnostics.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(diagnostics[i].code, "QD100");
    EXPECT_EQ(diagnostics[i].severity, Severity::kError);
    EXPECT_EQ(diagnostics[i].message, expected[i]) << i;
    EXPECT_EQ(diagnostics[i].location, "run forged") << i;
  }
}

TEST(StreamGraphQD100, PinsCappedFindingsAndSummaryLine) {
  // Three more repeats of the two shared seeds: six findings in all.
  StreamGraph graph = forged_collision_graph();
  forge_leaf(graph, StreamRole::kParam, "init=f", {6}, 22);
  forge_leaf(graph, StreamRole::kParam, "init=g", {7}, 11);
  forge_leaf(graph, StreamRole::kParam, "init=h", {8}, 22);
  LintOptions capped;
  capped.max_findings_per_rule = 4;
  const Diagnostics diagnostics = audit_stream_graph(graph, capped);
  const std::string a = "param stream of q=2/init=a (root/0/0/1)";
  const std::string b = "param stream of q=2/init=b (root/0/0/2)";
  const std::vector<std::string> expected = {
      collision_message(a, "structure stream of q=2/init=* (root/0/2/0)"),
      collision_message(b, "param stream of init=d (root/4)"),
      collision_message(a, "param stream of rep=1/init=e (root/1/5)"),
      collision_message(b, "param stream of init=f (root/6)"),
      "... and 2 more QD100 finding(s) suppressed "
      "(max_findings_per_rule = 4)",
  };
  ASSERT_EQ(diagnostics.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(diagnostics[i].code, "QD100");
    EXPECT_EQ(diagnostics[i].severity, Severity::kError);
    EXPECT_EQ(diagnostics[i].message, expected[i]) << i;
  }
  EXPECT_EQ(diagnostics[3].location, "run forged");
  EXPECT_EQ(diagnostics[4].location, "");
}

TEST(StreamGraphQD100, SeedsSharingLowBitsStayDistinct) {
  // 4096 distinct seeds whose low 40 bits are all zero: a table indexed by
  // low seed bits would pile them into one slot, but none is a collision.
  StreamGraph graph;
  graph.label = "low-bits";
  constexpr std::uint64_t kLeaves = 4096;
  for (std::uint64_t i = 0; i < kLeaves; ++i) {
    forge_leaf(graph, StreamRole::kParam, "init=x", {i}, i << 40);
  }
  EXPECT_TRUE(audit_stream_graph(graph).empty());

  // One planted duplicate deep in the run is reported exactly once.
  forge_leaf(graph, StreamRole::kParam, "init=y", {kLeaves}, 3001ull << 40);
  const Diagnostics diagnostics = audit_stream_graph(graph);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].message,
            collision_message("param stream of init=x (root/3001)",
                              "param stream of init=y (root/4096)"));
  EXPECT_EQ(diagnostics[0].location, "run low-bits");
}

// --- QD101: cross-run seed aliasing ----------------------------------------

TEST(StreamGraphQD101, IdenticalFingerprintsAreErrors) {
  TrainingExperimentOptions base;
  base.seed = 7;
  const std::vector<StreamGraph> graphs = {
      training_stream_graph(base, "rep=0"),
      training_stream_graph(base, "rep=1"),
  };
  const Diagnostics diagnostics = audit_stream_graphs(graphs);
  ASSERT_TRUE(has_code(diagnostics, "QD101"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StreamGraphQD101, SharedRootUnderDifferentOptionsIsWarning) {
  TrainingExperimentOptions a;
  a.seed = 7;
  TrainingExperimentOptions b = a;
  b.layers += 1;  // different fingerprint, same root seed
  const Diagnostics diagnostics = audit_stream_graphs(
      {training_stream_graph(a, "runA"), training_stream_graph(b, "runB")});
  ASSERT_EQ(count_code(diagnostics, "QD101"), 1u);
  EXPECT_FALSE(has_errors(diagnostics));
}

// --- QD102: fingerprint soundness -------------------------------------------

TEST(StreamGraphQD102, PaperOptionFingerprintsAreSound) {
  // Every result-affecting field moves the fingerprint; keep_samples and
  // deadline_seconds deliberately do not.
  EXPECT_TRUE(audit_fingerprint_probes(
                  options_table_probes(kVarianceOptionsTable), "variance")
                  .empty());
  EXPECT_TRUE(audit_fingerprint_probes(
                  options_table_probes(kTrainingOptionsTable), "training")
                  .empty());
  EXPECT_TRUE(audit_fingerprint_probes(
                  sweep_fingerprint_probes(TrainingSweepOptions{}), "sweep")
                  .empty());
}

TEST(StreamGraphQD102, BlindFingerprintIsError) {
  FingerprintProbe probe;
  probe.field = "layers";
  probe.expect_move = true;
  probe.base = "fp";
  probe.perturbed = "fp";  // result-affecting field did not move it
  const Diagnostics diagnostics = audit_fingerprint_probes({probe}, "test");
  ASSERT_EQ(count_code(diagnostics, "QD102"), 1u);
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StreamGraphQD102, OverSensitiveFingerprintIsWarning) {
  FingerprintProbe probe;
  probe.field = "keep_samples";
  probe.expect_move = false;
  probe.base = "fp";
  probe.perturbed = "fp2";  // cosmetic field invalidates every checkpoint
  const Diagnostics diagnostics = audit_fingerprint_probes({probe}, "test");
  ASSERT_EQ(count_code(diagnostics, "QD102"), 1u);
  EXPECT_FALSE(has_errors(diagnostics));
}

// --- QD103: cache-key coverage ----------------------------------------------

TEST(StreamGraphQD103, DuplicateQubitCountAliasesCellKeys) {
  // qubit_counts = {4, 4}: two cells with distinct RNG streams
  // (root.child(0) vs root.child(1)) but the same checkpoint key
  // "q=4/init=<name>" — a resume would restore one cell's results as the
  // other's.
  VarianceExperimentOptions options;
  options.qubit_counts = {4, 4};
  options.circuits_per_point = 1;
  const Diagnostics diagnostics =
      audit_stream_graph(variance_stream_graph(options));
  EXPECT_TRUE(has_code(diagnostics, "QD103"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StreamGraphQD103, WorkerBlindToFingerprintedFieldIsError) {
  FingerprintProbe probe;
  probe.field = "topology";
  probe.base = "fp-a";
  probe.perturbed = "fp-b";   // fingerprint distinguishes the runs...
  probe.wire_base = "{}";
  probe.wire_perturbed = "{}";  // ...but the wire encoding does not
  const Diagnostics diagnostics = audit_fingerprint_probes({probe}, "test");
  ASSERT_TRUE(has_code(diagnostics, "QD103"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StreamGraphQD103, WireRoundTripMustRecoverTheFingerprint) {
  FingerprintProbe probe;
  probe.field = "entangler";
  probe.base = "fp-a";
  probe.perturbed = "fp-b";
  probe.wire_base = "{}";
  probe.wire_perturbed = "{\"entangler\":\"cnot\"}";
  probe.wire_roundtrip = "fp-a";  // decoding dropped the field
  const Diagnostics diagnostics = audit_fingerprint_probes({probe}, "test");
  ASSERT_TRUE(has_code(diagnostics, "QD103"));
  EXPECT_TRUE(has_errors(diagnostics));
}

// --- serve bridge -----------------------------------------------------------

TEST(ServeAudit, PaperRequestsAuditCleanIncludingWireProbes) {
  serve::RequestSpec variance;
  variance.id = "fig5a";
  variance.kind = serve::SpecKind::kVariance;
  variance.variance.qubit_counts = {2, 4, 6, 8, 10};
  EXPECT_TRUE(serve::audit_request(variance).empty());

  serve::RequestSpec training;
  training.id = "fig5b";
  training.kind = serve::SpecKind::kTraining;
  EXPECT_TRUE(serve::audit_request(training).empty());

  // The wire probes must actually be wired: every result-affecting probe
  // carries the worker-visible encoding.
  for (const FingerprintProbe& probe :
       options_table_probes(kVarianceOptionsTable)) {
    if (probe.expect_move) {
      EXPECT_FALSE(probe.wire_base.empty()) << probe.field;
      EXPECT_FALSE(probe.wire_roundtrip.empty()) << probe.field;
    }
  }
}

TEST(ServeAudit, RequestAuditIsItsGraphThenItsKindsTableFindings) {
  // The process-wide findings of each kind are the audit of that kind's
  // options table...
  EXPECT_EQ(to_json(serve::options_table_findings(serve::SpecKind::kVariance))
                .dump(),
            to_json(audit_fingerprint_probes(
                        options_table_probes(kVarianceOptionsTable),
                        "variance"))
                .dump());
  EXPECT_EQ(to_json(serve::options_table_findings(serve::SpecKind::kTraining))
                .dump(),
            to_json(audit_fingerprint_probes(
                        options_table_probes(kTrainingOptionsTable),
                        "training"))
                .dump());
  EXPECT_NE(&serve::options_table_findings(serve::SpecKind::kVariance),
            &serve::options_table_findings(serve::SpecKind::kTraining));

  // ...and a request's audit is its stream graph's findings followed by
  // those of its kind. {4, 4} gives the graph a QD103 finding.
  serve::RequestSpec variance;
  variance.id = "dup";
  variance.kind = serve::SpecKind::kVariance;
  variance.variance.qubit_counts = {4, 4};
  variance.variance.circuits_per_point = 1;
  serve::RequestSpec training;
  training.id = "fig5b";
  training.kind = serve::SpecKind::kTraining;
  for (const serve::RequestSpec& spec : {variance, training}) {
    Diagnostics expected =
        audit_stream_graph(serve::request_stream_graph(spec));
    const Diagnostics& table = serve::options_table_findings(spec.kind);
    expected.insert(expected.end(), table.begin(), table.end());
    EXPECT_EQ(to_json(serve::audit_request(spec)).dump(),
              to_json(expected).dump())
        << spec.id;
  }
  EXPECT_TRUE(has_code(serve::audit_request(variance), "QD103"));
  LintOptions lint;
  lint.disabled_codes = {"QD103"};
  EXPECT_TRUE(serve::audit_request(variance, lint).empty());
}

TEST(ServeAudit, RequestGraphMatchesRequestCellPlan) {
  serve::RequestSpec spec;
  spec.id = "x";
  spec.kind = serve::SpecKind::kVariance;
  spec.variance.qubit_counts = {2, 3};
  const StreamGraph graph = serve::request_stream_graph(spec);
  const CellPlan cells = serve::request_cell_plan(spec);
  ASSERT_EQ(graph.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(graph.cells[i], cells[i].key);
  }
}

TEST(ServeAudit, CrossRequestSeedAliasingIsFlagged) {
  serve::RequestSpec a;
  a.id = "a";
  a.kind = serve::SpecKind::kTraining;
  serve::RequestSpec b = a;
  b.id = "b";
  b.training.layers += 1;  // distinct fingerprint, same root seed
  const Diagnostics diagnostics = serve::audit_requests({a, b});
  EXPECT_TRUE(has_code(diagnostics, "QD101"));
}

TEST(ServeProtocol, EntanglerAndTopologySurviveTheWire) {
  // The PR 7 wire format omitted entangler/topology even though both are
  // fingerprinted — the exact QD103 defect audit_request now guards. Pin
  // the fix: a non-default gate/topology must round-trip.
  VarianceExperimentOptions options;
  options.entangler = EntanglerGate::kCnot;
  options.topology = EntanglerTopology::kRing;
  const VarianceExperimentOptions decoded = options_from_json(
      kVarianceOptionsTable, options_to_json(kVarianceOptionsTable, options));
  EXPECT_EQ(decoded.entangler, EntanglerGate::kCnot);
  EXPECT_EQ(decoded.topology, EntanglerTopology::kRing);
  EXPECT_EQ(options_fingerprint(decoded), options_fingerprint(options));
}

// --- QB007 fold -------------------------------------------------------------

TEST(SweepPreflight, DerivedSeedLadderStillPassesQB007) {
  // lint_sweep_options now derives its (label, seed) pairs from
  // sweep_stream_graphs; the fold must not change QB007's verdicts: the
  // derived ladder is collision-free for every paper training shape.
  for (const std::size_t layers : {1u, 5u}) {
    TrainingSweepOptions options;
    options.base.layers = layers;
    options.repetitions = 5;
    const Diagnostics diagnostics = lint_sweep_options(options);
    EXPECT_FALSE(has_code(diagnostics, "QB007")) << "layers=" << layers;
    // ...and matches the base experiment's own findings (the fold added
    // no sweep-specific noise).
    EXPECT_EQ(diagnostics.size(), lint_training_options(options.base).size())
        << "layers=" << layers;
  }
}

// --- plumbing ---------------------------------------------------------------

TEST(StreamGraph, RuleRegistryCoversTheQDFamily) {
  const std::vector<LintRuleInfo>& rules = determinism_rules();
  std::set<std::string> codes;
  for (const LintRuleInfo& rule : rules) codes.insert(rule.code);
  for (const char* code : {"QD100", "QD101", "QD102", "QD103", "QD110",
                           "QD111", "QD112", "QD113", "QD114", "QD115"}) {
    EXPECT_EQ(codes.count(code), 1u) << code;
  }
  EXPECT_FALSE(determinism_rule_table().to_ascii().empty());
}

TEST(StreamGraph, FindingsRoundTripThroughJson) {
  VarianceExperimentOptions options;
  options.qubit_counts = {4, 4};
  options.circuits_per_point = 1;
  const Diagnostics diagnostics = audit_variance_options(options);
  ASSERT_TRUE(has_errors(diagnostics));
  const Diagnostics restored =
      diagnostics_from_json(parse_json(to_json(diagnostics).dump(2)));
  ASSERT_EQ(restored.size(), diagnostics.size());
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    EXPECT_EQ(restored[i].code, diagnostics[i].code);
    EXPECT_EQ(restored[i].severity, diagnostics[i].severity);
    EXPECT_EQ(restored[i].message, diagnostics[i].message);
    EXPECT_EQ(restored[i].location, diagnostics[i].location);
  }
}

TEST(StreamGraph, RespectsDisabledRulesAndFindingCaps) {
  VarianceExperimentOptions options;
  options.qubit_counts = {4, 4};
  options.circuits_per_point = 1;
  LintOptions lint;
  lint.disabled_codes = {"QD103"};
  EXPECT_FALSE(
      has_code(audit_stream_graph(variance_stream_graph(options), lint),
               "QD103"));

  // A graph with many collisions folds the overflow into a summary line.
  StreamGraph graph;
  graph.label = "forged";
  for (std::uint64_t i = 0; i < 24; ++i) {
    std::string cell = "c";
    cell += std::to_string(i);
    forge_leaf(graph, StreamRole::kParam, cell, {i}, 5);
  }
  LintOptions capped;
  capped.max_findings_per_rule = 4;
  const Diagnostics diagnostics = audit_stream_graph(graph, capped);
  EXPECT_EQ(count_code(diagnostics, "QD100"), 5u);  // 4 findings + summary
}

}  // namespace
}  // namespace qbarren
