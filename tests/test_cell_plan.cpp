// Runner <-> cell plan agreement. The cells a runner checkpoints and
// reports, in the order it reports them, must be exactly the stream
// graph's cells (what the QD auditor and `fsck --kind` check) and, for
// requests, serve's enumeration. The leaf seeds of the paper-grid graphs
// are pinned by digest in fixtures/stream_leaf_digests.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/protocol.hpp"
#include "fnv1a.hpp"

namespace qbarren {
namespace {

using test_support::Fnv1a;
using test_support::hex;

/// An in-memory checkpoint plus the progress order of one runner call,
/// at one job so the order is the runner's enumeration order.
struct Recording {
  explicit Recording(const std::string& fingerprint)
      : store(std::string(), fingerprint) {
    control.jobs = 1;
    control.checkpoint = &store;
    control.progress = [this](const RunProgress& p) {
      order.push_back(p.cell);
    };
  }
  Checkpoint store;
  std::vector<std::string> order;
  RunControl control;
};

/// The store holds exactly `cells` (which are distinct).
void expect_store_holds(const Checkpoint& store,
                        const std::vector<std::string>& cells) {
  EXPECT_EQ(store.cell_count(), cells.size());
  for (const std::string& cell : cells) {
    EXPECT_TRUE(store.has_cell(cell)) << cell;
  }
}

std::vector<std::string> serve_keys(const serve::RequestSpec& spec) {
  std::vector<std::string> keys;
  for (const PlanCell& cell : serve::request_cell_plan(spec)) {
    keys.push_back(cell.key);
  }
  return keys;
}

TEST(CellPlanAgreement, VarianceRunnerFollowsTheStreamGraph) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 3;
  options.layers = 2;
  Recording run(options_fingerprint(options));
  (void)VarianceExperiment(options).run_paper_set(FanMode::kLayerTensor,
                                                  run.control);

  const StreamGraph graph = variance_stream_graph(options);
  EXPECT_EQ(run.order, graph.cells);
  expect_store_holds(run.store, graph.cells);

  serve::RequestSpec spec;
  spec.kind = serve::SpecKind::kVariance;
  spec.variance = options;
  EXPECT_EQ(serve_keys(spec), graph.cells);
}

TEST(CellPlanAgreement, TrainingRunnerFollowsTheStreamGraph) {
  TrainingExperimentOptions options;
  options.qubits = 2;
  options.layers = 1;
  options.iterations = 2;
  Recording run(options_fingerprint(options));
  (void)TrainingExperiment(options).run_paper_set(FanMode::kLayerTensor,
                                                  run.control);

  const StreamGraph graph = training_stream_graph(options);
  EXPECT_EQ(run.order, graph.cells);
  expect_store_holds(run.store, graph.cells);

  serve::RequestSpec spec;
  spec.kind = serve::SpecKind::kTraining;
  spec.training = options;
  EXPECT_EQ(serve_keys(spec), graph.cells);
}

TEST(CellPlanAgreement, SweepRunnerFollowsTheStreamGraphs) {
  TrainingSweepOptions options;
  options.base.qubits = 2;
  options.base.layers = 1;
  options.base.iterations = 2;
  options.repetitions = 3;
  Recording run(options_fingerprint(options));
  const auto owned = paper_initializers(FanMode::kLayerTensor);
  std::vector<const Initializer*> initializers;
  for (const auto& init : owned) initializers.push_back(init.get());
  (void)run_training_sweep(initializers, options, run.control);

  std::vector<std::string> cells;
  for (const StreamGraph& graph : sweep_stream_graphs(options)) {
    cells.insert(cells.end(), graph.cells.begin(), graph.cells.end());
  }
  EXPECT_EQ(run.order, cells);
  expect_store_holds(run.store, cells);
}

// --- pinned leaf digests -----------------------------------------------------

// FNV-1a over everything a graph derives: its label, root seed and
// cells, then per leaf its seed, path, role, sharing and cell label.
void digest_graph(Fnv1a& h, const StreamGraph& graph) {
  h.text(graph.label);
  h.word(graph.root_seed);
  h.word(graph.cells.size());
  for (const std::string& cell : graph.cells) h.text(cell);
  h.word(graph.leaves.size());
  for (const StreamLeaf& leaf : graph.leaves) {
    h.word(leaf.seed);
    h.word(leaf.path().size());
    for (const std::uint64_t index : leaf.path()) h.word(index);
    h.word(static_cast<std::uint64_t>(leaf.role));
    h.word(leaf.shared_by_design ? 1 : 0);
    h.text(graph.cell_of(leaf));
  }
}

std::map<std::string, std::string> computed_digests() {
  std::map<std::string, std::string> out;
  for (const std::uint64_t seed : {42u, 7u}) {
    VarianceExperimentOptions options;
    options.qubit_counts = {2, 4, 6, 8, 10};
    options.circuits_per_point = 200;
    options.seed = seed;
    Fnv1a h;
    digest_graph(h, variance_stream_graph(options));
    out["variance-paper-grid-seed-" + std::to_string(seed)] = hex(h.value());
  }
  {
    Fnv1a h;
    digest_graph(h, training_stream_graph(TrainingExperimentOptions{}));
    out["training"] = hex(h.value());
  }
  {
    TrainingSweepOptions options;
    options.repetitions = 5;
    Fnv1a h;
    for (const StreamGraph& graph : sweep_stream_graphs(options)) {
      digest_graph(h, graph);
    }
    out["sweep-5-repetitions"] = hex(h.value());
  }
  return out;
}

TEST(CellPlanAgreement, PaperGridLeafDigestsArePinned) {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) +
                   "/stream_leaf_digests.txt");
  ASSERT_TRUE(in) << "cannot open fixtures/stream_leaf_digests.txt";
  std::map<std::string, std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    pinned[name] = digest;
  }
  const std::map<std::string, std::string> computed = computed_digests();
  for (const auto& [graph, value] : computed) {
    EXPECT_EQ(value, pinned[graph]) << graph;
  }
  EXPECT_EQ(pinned.size(), computed.size());
}

}  // namespace
}  // namespace qbarren
