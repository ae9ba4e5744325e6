// Tests for noisy circuit execution and noisy gradients.
#include "qbarren/dsim/noisy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

TEST(NoiseModel, EmptyAndFactories) {
  const NoiseModel none;
  EXPECT_TRUE(none.empty());
  const NoiseModel dep = make_depolarizing_model(0.01, 0.02);
  EXPECT_FALSE(dep.empty());
  ASSERT_TRUE(dep.single_qubit.has_value());
  ASSERT_TRUE(dep.two_qubit.has_value());
  EXPECT_EQ(dep.two_qubit->num_qubits(), 2u);
}

TEST(SimulateNoisy, NoiselessMatchesStateVector) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  Rng rng(2);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);

  const NoiseModel none;
  const DensityMatrix rho = simulate_noisy(c, params, none);
  const StateVector psi = exec::simulate(c, params);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
  for (std::size_t i = 0; i < psi.dimension(); ++i) {
    EXPECT_NEAR(rho.probability(i), psi.probability(i), 1e-9);
  }
}

TEST(SimulateNoisy, NoiseReducesPurity) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  Rng rng(3);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);
  const DensityMatrix rho =
      simulate_noisy(c, params, make_depolarizing_model(0.02, 0.05));
  EXPECT_LT(rho.purity(), 0.999);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
}

TEST(SimulateNoisy, SingleQubitChannelFallsBackOnTwoQubitGates) {
  Circuit c(2);
  c.add_hadamard(0);
  c.add_cnot(0, 1);
  NoiseModel model;
  model.single_qubit = channels::depolarizing(0.1);
  // two_qubit unset: single-qubit channel applies to both CNOT qubits.
  const DensityMatrix rho = simulate_noisy(c, {}, model);
  EXPECT_LT(rho.purity(), 1.0);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
}

TEST(NoisyExpectation, IdentityCostRisesWithNoise) {
  // At theta = 0 the noiseless identity cost is exactly 0; depolarizing
  // noise leaks population out of |0...0> and raises it.
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  const GlobalZeroObservable obs(3);
  const std::vector<double> zeros(c.num_parameters(), 0.0);

  const double noiseless = noisy_expectation(c, zeros, obs, NoiseModel{});
  EXPECT_NEAR(noiseless, 0.0, 1e-10);

  const double p01 =
      noisy_expectation(c, zeros, obs, make_depolarizing_model(0.01, 0.01));
  const double p05 =
      noisy_expectation(c, zeros, obs, make_depolarizing_model(0.05, 0.05));
  EXPECT_GT(p01, 1e-4);
  EXPECT_GT(p05, p01);
}

TEST(NoisyGradient, MatchesExactEngineWithoutNoise) {
  TrainingAnsatzOptions options;
  options.layers = 1;
  const Circuit c = training_ansatz(2, options);
  const GlobalZeroObservable obs(2);
  Rng rng(5);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);

  const ParameterShiftEngine exact;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double noisy = noisy_parameter_shift_partial(c, params, obs,
                                                       NoiseModel{}, i);
    EXPECT_NEAR(noisy, exact.partial(c, obs, params, i), 1e-9) << i;
  }
}

TEST(NoisyGradient, MatchesFiniteDifferenceUnderNoise) {
  // Parameter-shift stays exact for noisy costs (channels carry no
  // trainable parameter); cross-check against central differences of the
  // noisy expectation.
  Circuit c(2);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_cz(0, 1);
  c.add_rotation(gates::Axis::kX, 1);
  const GlobalZeroObservable obs(2);
  const NoiseModel noise = make_depolarizing_model(0.05, 0.08);
  const std::vector<double> params{0.7, -0.4};

  for (std::size_t i = 0; i < params.size(); ++i) {
    const double shift =
        noisy_parameter_shift_partial(c, params, obs, noise, i);
    const double h = 1e-5;
    std::vector<double> work = params;
    work[i] = params[i] + h;
    const double plus = noisy_expectation(c, work, obs, noise);
    work[i] = params[i] - h;
    const double minus = noisy_expectation(c, work, obs, noise);
    EXPECT_NEAR(shift, (plus - minus) / (2.0 * h), 1e-6) << i;
  }
}

TEST(NoisyGradient, NoiseShrinksGradientMagnitude) {
  // Noise-induced flattening: depolarizing noise contracts expectation
  // values toward a constant, shrinking the sampled gradient variance
  // (cf. noise-induced barren plateaus).
  Rng structure_rng(8);
  VarianceAnsatzOptions ansatz_options;
  ansatz_options.layers = 8;
  const Circuit c = variance_ansatz(4, structure_rng, ansatz_options);
  const GlobalZeroObservable obs(4);
  const auto init = make_initializer("random");

  std::vector<double> clean_grads;
  std::vector<double> noisy_grads;
  const NoiseModel noise = make_depolarizing_model(0.03, 0.05);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    Rng prng = Rng(100).child(trial);
    const auto params = init->initialize(c, prng);
    const std::size_t last = c.num_parameters() - 1;
    clean_grads.push_back(
        noisy_parameter_shift_partial(c, params, obs, NoiseModel{}, last));
    noisy_grads.push_back(
        noisy_parameter_shift_partial(c, params, obs, noise, last));
  }
  EXPECT_LT(sample_variance(noisy_grads), sample_variance(clean_grads));
}

TEST(NoisyGradient, ValidatesIndex) {
  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  const GlobalZeroObservable obs(1);
  EXPECT_THROW((void)noisy_parameter_shift_partial(
                   c, std::vector<double>{0.1}, obs, NoiseModel{}, 1),
               InvalidArgument);
}

}  // namespace
}  // namespace qbarren
