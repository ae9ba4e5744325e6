// Cross-module integration tests: the full pipeline the benches exercise,
// on reduced problem sizes, plus paper-level structural facts.
#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/bp/landscape.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/printer.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/trainer.hpp"

namespace qbarren {
namespace {

TEST(Integration, PaperAnsatzFactsHold) {
  // §IV-D: n = 10, L = 5 -> 145 gates, 100 parameters.
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit c = training_ansatz(10, options);
  EXPECT_EQ(c.num_operations(), 145u);
  EXPECT_EQ(c.num_parameters(), 100u);

  // Eq 4's cost at theta = 0 (identity circuit) is exactly 0.
  const CostFunction cost =
      make_identity_cost(std::make_shared<const Circuit>(c));
  EXPECT_NEAR(cost.value(std::vector<double>(100, 0.0)), 0.0, 1e-12);
}

TEST(Integration, EndToEndPipelineOnTinyProblem) {
  // initializer -> ansatz -> cost -> gradient -> optimizer, 3 qubits.
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(3, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);

  const auto init = make_initializer("xavier-normal");
  Rng rng(4);
  std::vector<double> params = init->initialize(*circuit, rng);

  const AdjointEngine engine;
  AdamOptimizer optimizer(0.1);
  TrainOptions train_options;
  train_options.max_iterations = 40;
  const TrainResult result =
      train(cost, engine, optimizer, std::move(params), train_options);
  EXPECT_LT(result.final_loss, 0.02);
}

TEST(Integration, GradientVarianceMatchesDirectComputation) {
  // Recompute one (q, init) cell of the variance experiment by hand and
  // compare with the experiment's output.
  VarianceExperimentOptions options;
  options.qubit_counts = {3};
  options.circuits_per_point = 5;
  options.layers = 4;
  options.seed = 99;

  const auto random = make_initializer("random");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get()});

  // Manual replication of the experiment's stream layout.
  const Rng root(99);
  const Rng q_stream = root.child(0);
  const ParameterShiftEngine engine;
  const GlobalZeroObservable obs(3);
  std::vector<double> samples;
  for (std::size_t i = 0; i < 5; ++i) {
    const Rng circuit_stream = q_stream.child(2 * i);
    Rng structure = circuit_stream.child(0);
    VarianceAnsatzOptions ansatz_options;
    ansatz_options.layers = 4;
    const Circuit c = variance_ansatz(3, structure, ansatz_options);
    Rng param_rng = circuit_stream.child(1);
    const auto params = random->initialize(c, param_rng);
    samples.push_back(
        engine.partial(c, obs, params, c.num_parameters() - 1));
  }
  EXPECT_NEAR(result.series[0].points[0].variance, sample_variance(samples),
              1e-15);
}

TEST(Integration, ZerosInitializerIsExactIdentityEverywhere) {
  // Zeros-initialized training circuits have cost exactly 0 and zero
  // gradient at every width — the best-case baseline the near-identity
  // strategies approximate.
  for (const std::size_t q : {2u, 4u, 6u}) {
    TrainingAnsatzOptions options;
    options.layers = 3;
    auto circuit =
        std::make_shared<const Circuit>(training_ansatz(q, options));
    const CostFunction cost = make_identity_cost(circuit);
    const auto zeros = make_initializer("zeros");
    Rng rng(1);
    const auto params = zeros->initialize(*circuit, rng);
    EXPECT_NEAR(cost.value(params), 0.0, 1e-12);
    const AdjointEngine engine;
    for (const double g :
         engine.gradient(*circuit, cost.observable(), params)) {
      EXPECT_NEAR(g, 0.0, 1e-11);
    }
  }
}

TEST(Integration, SmallNormalGradientLargerThanRandomAtWidth) {
  // The mechanism behind the whole paper: near-identity initialization
  // preserves gradient magnitude where wide random circuits lose it.
  VarianceExperimentOptions options;
  options.qubit_counts = {6};
  options.circuits_per_point = 40;
  options.layers = 30;
  options.seed = 21;
  const auto random = make_initializer("random");
  const auto small = make_initializer("small-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), small.get()});
  EXPECT_GT(result.series[1].points[0].variance,
            5.0 * result.series[0].points[0].variance);
}

TEST(Integration, LocalCostDecaysSlowerThanGlobal) {
  // Cerezo et al.'s observation, reproduced by the ablation path: at fixed
  // depth the local cost's gradient variance decays more slowly in q.
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 6};
  options.circuits_per_point = 40;
  options.layers = 12;
  options.seed = 5;
  const auto random = make_initializer("random");

  options.cost = CostKind::kGlobalZero;
  const VarianceResult global =
      VarianceExperiment(options).run({random.get()});
  options.cost = CostKind::kLocalZero;
  const VarianceResult local =
      VarianceExperiment(options).run({random.get()});
  EXPECT_LT(global.series[0].decay_fit.slope,
            local.series[0].decay_fit.slope);
}

TEST(Integration, QasmExportOfPaperAnsatzParses) {
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit c = training_ansatz(10, options);
  const std::vector<double> params(c.num_parameters(), 0.1);
  const std::string qasm = to_qasm(c, params);
  // 145 gate lines + 3 header lines.
  std::size_t lines = 0;
  for (const char ch : qasm) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 148u);
  EXPECT_NE(qasm.find("cz q[8], q[9];"), std::string::npos);
}

TEST(Integration, FullReproductionPipelineIsDeterministic) {
  // Variance + training + landscape with the same seeds twice.
  VarianceExperimentOptions v;
  v.qubit_counts = {2, 3};
  v.circuits_per_point = 6;
  v.layers = 5;
  const VarianceResult v1 = VarianceExperiment(v).run_paper_set();
  const VarianceResult v2 = VarianceExperiment(v).run_paper_set();
  EXPECT_DOUBLE_EQ(v1.series[3].points[1].variance,
                   v2.series[3].points[1].variance);

  TrainingExperimentOptions t;
  t.qubits = 3;
  t.layers = 2;
  t.iterations = 5;
  const TrainingResult t1 = TrainingExperiment(t).run_paper_set();
  const TrainingResult t2 = TrainingExperiment(t).run_paper_set();
  EXPECT_EQ(t1.series[2].result.loss_history,
            t2.series[2].result.loss_history);

  LandscapeOptions l;
  l.qubits = 2;
  l.layers = 5;
  l.grid_points = 5;
  EXPECT_EQ(scan_landscape(l).values, scan_landscape(l).values);
}

}  // namespace
}  // namespace qbarren
