// Tests for the multi-seed training sweep, entangler options, XXZ
// Hamiltonian factory, and the higher-moment statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/hamiltonian.hpp"

namespace qbarren {
namespace {

// --- training sweep ---------------------------------------------------------

TEST(TrainingSweep, ValidatesOptions) {
  const auto xavier = make_initializer("xavier-normal");
  TrainingSweepOptions options;
  options.repetitions = 1;
  EXPECT_THROW((void)run_training_sweep({xavier.get()}, options),
               InvalidArgument);
  options.repetitions = 2;
  EXPECT_THROW((void)run_training_sweep({}, options), InvalidArgument);
}

TEST(TrainingSweep, ShapesAndDeterminism) {
  const auto xavier = make_initializer("xavier-normal");
  TrainingSweepOptions options;
  options.base.qubits = 3;
  options.base.layers = 2;
  options.base.iterations = 5;
  options.repetitions = 3;
  const TrainingSweepResult a =
      run_training_sweep({xavier.get()}, options);
  ASSERT_EQ(a.series.size(), 1u);
  EXPECT_EQ(a.series[0].final_losses.size(), 3u);
  EXPECT_EQ(a.series[0].final_loss_summary.count, 3u);

  const TrainingSweepResult b =
      run_training_sweep({xavier.get()}, options);
  EXPECT_EQ(a.series[0].final_losses, b.series[0].final_losses);
}

TEST(TrainingSweep, SeedsActuallyDiffer) {
  const auto xavier = make_initializer("xavier-normal");
  TrainingSweepOptions options;
  options.base.qubits = 3;
  options.base.layers = 2;
  options.base.iterations = 5;
  options.repetitions = 3;
  const TrainingSweepResult result =
      run_training_sweep({xavier.get()}, options);
  const auto& losses = result.series[0].final_losses;
  EXPECT_NE(losses[0], losses[1]);
  EXPECT_NE(losses[1], losses[2]);
}

TEST(TrainingSweep, XavierRobustlyBeatsRandomAcrossSeeds) {
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  TrainingSweepOptions options;
  options.base.qubits = 6;
  options.base.layers = 3;
  options.base.iterations = 25;
  options.repetitions = 3;
  const TrainingSweepResult result =
      run_training_sweep({random.get(), xavier.get()}, options);
  // Every xavier seed ends below every random seed (GD on the plateau).
  EXPECT_LT(result.series[1].final_loss_summary.max,
            result.series[0].final_loss_summary.min);
}

TEST(TrainingSweep, SummaryTableShape) {
  const auto xavier = make_initializer("xavier-normal");
  TrainingSweepOptions options;
  options.base.qubits = 2;
  options.base.layers = 1;
  options.base.iterations = 2;
  options.repetitions = 2;
  const TrainingSweepResult result =
      run_training_sweep({xavier.get()}, options);
  const Table table = result.summary_table();
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 6u);
}

// --- entangler options --------------------------------------------------------

TEST(Entangler, TopologiesProduceExpectedPairCounts) {
  for (const auto gate : {EntanglerGate::kCz, EntanglerGate::kCnot}) {
    Circuit linear(5);
    add_entangling_layer(linear, gate, EntanglerTopology::kLinear);
    EXPECT_EQ(linear.two_qubit_gate_count(), 4u);

    Circuit ring(5);
    add_entangling_layer(ring, gate, EntanglerTopology::kRing);
    EXPECT_EQ(ring.two_qubit_gate_count(), 5u);

    Circuit all(5);
    add_entangling_layer(all, gate, EntanglerTopology::kAllToAll);
    EXPECT_EQ(all.two_qubit_gate_count(), 10u);
  }
}

TEST(Entangler, RingOnTwoQubitsHasNoDuplicatePair) {
  Circuit ring(2);
  add_entangling_layer(ring, EntanglerGate::kCz, EntanglerTopology::kRing);
  EXPECT_EQ(ring.two_qubit_gate_count(), 1u);
}

TEST(Entangler, CnotAnsatzBuildsAndSimulates) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  options.entangler = EntanglerGate::kCnot;
  options.topology = EntanglerTopology::kRing;
  const Circuit c = training_ansatz(3, options);
  const std::vector<double> params(c.num_parameters(), 0.2);
  EXPECT_NEAR(exec::simulate(c, params).norm_squared(), 1.0, 1e-12);
  for (const Operation& op : c.operations()) {
    EXPECT_NE(op.kind, OpKind::kCz);
  }
}

TEST(Entangler, VarianceExperimentHonorsTopology) {
  VarianceExperimentOptions options;
  options.qubit_counts = {3};
  options.circuits_per_point = 6;
  options.layers = 4;
  const auto random = make_initializer("random");

  options.topology = EntanglerTopology::kLinear;
  const VarianceResult linear =
      VarianceExperiment(options).run({random.get()});
  options.topology = EntanglerTopology::kAllToAll;
  const VarianceResult all =
      VarianceExperiment(options).run({random.get()});
  EXPECT_NE(linear.series[0].points[0].variance,
            all.series[0].points[0].variance);
}

// --- XXZ Hamiltonian ----------------------------------------------------------

TEST(Xxz, TermStructure) {
  const PauliSumObservable h = heisenberg_xxz(3, 1.0, 0.5, 0.25);
  // 2 bonds * 3 terms + 3 fields.
  EXPECT_EQ(h.terms().size(), 9u);
  EXPECT_EQ(h.terms()[0].paulis, "XXI");
  EXPECT_EQ(h.terms()[1].paulis, "YYI");
  EXPECT_EQ(h.terms()[2].paulis, "ZZI");
  EXPECT_DOUBLE_EQ(h.terms()[2].coefficient, 0.5);
  EXPECT_EQ(h.terms()[6].paulis, "ZII");
}

TEST(Xxz, NoFieldOmitsZTerms) {
  const PauliSumObservable h = heisenberg_xxz(3, 1.0, 1.0);
  EXPECT_EQ(h.terms().size(), 6u);
  EXPECT_THROW((void)heisenberg_xxz(1, 1.0, 1.0), InvalidArgument);
}

TEST(Xxz, TwoSiteGroundEnergyKnown) {
  // H = XX + YY + Delta ZZ on 2 sites: singlet energy -2 - Delta... the
  // spectrum is {Delta, Delta, -Delta + 2, -Delta - 2} for Jxy = 1:
  // ground energy = -Delta - 2 when Delta > -... at Delta = 0.5: -2.5.
  const PauliSumObservable h = heisenberg_xxz(2, 1.0, 0.5);
  EXPECT_NEAR(ground_state_energy(h), -2.5, 1e-8);
}

// --- higher moments ------------------------------------------------------------

TEST(HigherMoments, GaussianIsMesokurtic) {
  Rng rng(3);
  const auto xs = rng.normal_vector(40000);
  EXPECT_NEAR(sample_excess_kurtosis(xs), 0.0, 0.1);
  EXPECT_NEAR(sample_skewness(xs), 0.0, 0.05);
}

TEST(HigherMoments, UniformIsPlatykurtic) {
  Rng rng(5);
  const auto xs = rng.uniform_vector(40000, -1.0, 1.0);
  EXPECT_NEAR(sample_excess_kurtosis(xs), -1.2, 0.05);
}

TEST(HigherMoments, SkewedSampleDetected) {
  // Squares of Gaussians (chi^2_1) are strongly right-skewed.
  Rng rng(7);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    const double g = rng.normal();
    x = g * g;
  }
  EXPECT_GT(sample_skewness(xs), 1.5);
  EXPECT_GT(sample_excess_kurtosis(xs), 3.0);
}

TEST(HigherMoments, Validation) {
  const std::vector<double> constant{1.0, 1.0};
  EXPECT_THROW((void)sample_skewness(constant), NumericalError);
  EXPECT_THROW((void)sample_excess_kurtosis(constant), NumericalError);
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)sample_skewness(one), InvalidArgument);
}

TEST(HigherMoments, PlateauGradientsAreLeptokurtic) {
  // Gradient samples on a plateau concentrate at 0 with rare outliers —
  // positive excess kurtosis; a direct statistical signature of BP.
  VarianceExperimentOptions options;
  options.qubit_counts = {6};
  options.circuits_per_point = 60;
  options.layers = 25;
  const auto random = make_initializer("random");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get()});
  // Re-derive the raw samples' kurtosis via the summary? The experiment
  // exposes only summaries, so sample directly at matching settings.
  const GlobalZeroObservable obs(6);
  const ParameterShiftEngine engine;
  std::vector<double> grads;
  for (std::uint64_t i = 0; i < 60; ++i) {
    Rng structure = Rng(200).child(i);
    VarianceAnsatzOptions ansatz_options;
    ansatz_options.layers = 25;
    const Circuit c = variance_ansatz(6, structure, ansatz_options);
    Rng prng = Rng(300).child(i);
    const auto params = random->initialize(c, prng);
    grads.push_back(
        engine.partial(c, obs, params, c.num_parameters() - 1));
  }
  EXPECT_GT(sample_excess_kurtosis(grads), 1.0);
  EXPECT_GT(result.series[0].points[0].gradient_summary.count, 0u);
}

}  // namespace
}  // namespace qbarren
