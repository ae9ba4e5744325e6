// Tests for noisy circuit execution and noisy gradients.
#include "qbarren/dsim/noisy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "fnv1a.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "random_circuit.hpp"

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

// --- the noisy-state pin ------------------------------------------------------
//
// simulate_noisy's density matrix, bit for bit: an FNV-1a digest of every
// rho element's real and imaginary bits followed by tr(H rho), for random
// circuits that use every op kind, with a linear CZ layer (a CZ ladder in
// the plan) after every seven random ops, q = 2..5, under no noise,
// single-qubit noise only (which also covers its fallback on two-qubit
// gates) and single- plus two-qubit depolarizing noise. Never re-record
// these digests to make a change pass.

std::string noisy_state_digest(const DensityMatrix& rho,
                               const Observable& observable) {
  test_support::Fnv1a h;
  for (std::size_t r = 0; r < rho.dimension(); ++r) {
    for (std::size_t col = 0; col < rho.dimension(); ++col) {
      const Complex v = rho.element(r, col);
      h.word(std::bit_cast<std::uint64_t>(v.real()));
      h.word(std::bit_cast<std::uint64_t>(v.imag()));
    }
  }
  h.word(std::bit_cast<std::uint64_t>(rho.expectation(observable)));
  return test_support::hex(h.value());
}

TEST(SimulateNoisy, DensityMatrixBitsArePinned) {
  NoiseModel single_only;
  single_only.single_qubit = channels::depolarizing(0.03);
  const NoiseModel models[3] = {NoiseModel{}, single_only,
                                make_depolarizing_model(0.01, 0.02)};
  // One row per circuit (q = 2..5, six circuits each), one column per
  // noise model.
  static constexpr const char* kPins[24][3] = {
      {"8bed8970e10a5f55", "17972c9688aefbd8", "dd45f1f5439b334f"},
      {"11a48042f4ba9da4", "cee7050c6e4ee8a1", "d1a319d9ac5bfe38"},
      {"3a347b3ff7f6b66e", "b9081df8934c12e3", "a025778ff670ec09"},
      {"a644bf07b4e25514", "99cf3a3154068d7e", "840ab4624d53cae6"},
      {"31a59f2f7522efb5", "14bbd88cfb125a7e", "c0133222029ad2ba"},
      {"2e011cabb95f3b58", "c9b2529d9707c994", "3e95a8d5d5950749"},
      {"7cb562b074c5eecf", "fd6cae08a02adc8e", "bf964c3dc33c9e55"},
      {"e6e81b1f8495d649", "33068bb4cd783ee0", "1afd1ece65224f59"},
      {"d00dbc75037c79a0", "5b48dbc734808c7e", "e4925ea1a12020ce"},
      {"09e08ef0ef21b474", "65ab19a841754350", "66ee37095b35e712"},
      {"8e55e8a4d32ff397", "90aa88fe65ff187d", "a88916a7c66b4704"},
      {"b119023aa4612753", "9272f5f152c9eb0a", "fa806b4e1d375a64"},
      {"857a92f7a98459da", "5e3d0ab2bd56a7bc", "e1d30d401bceea87"},
      {"f5be442958183b35", "dd0f3d78abf52cfb", "2804b93e6b4ee565"},
      {"0d2ece4f173cf331", "58c8f8cf913dae38", "6f1e6bfd3ed32f63"},
      {"878e6b5a2650e896", "024ae22468400b1f", "7cc38bdabc25d657"},
      {"e78595dcb4b50666", "a002f204869723aa", "6924d7d87957e7a2"},
      {"a210e7a06ac8c2e0", "bc8cbc0aa58626f4", "f7e120a53656df37"},
      {"9a08c693b2ebadc2", "dbdf499210e3bd59", "7c37e7b66b0f30e1"},
      {"3bcfa9c055ee33eb", "3b78201f2a89c68e", "6997ae1109d9f510"},
      {"f95dbaa9a14251d2", "c7b4b77e687f1c85", "1a002e5cdf4bc102"},
      {"498e8f252a2761c1", "cb923f97fdbb0df6", "da420a882eaabb88"},
      {"ef8ec4458d1a80f8", "5cb21e82708edcc2", "7155c1fcc5c7f4e7"},
      {"9e2ad9df97a884d5", "4036ebf0b7bba33e", "e8d8c7b36aba15d3"},
  };
  std::size_t row = 0;
  for (std::size_t q = 2; q <= 5; ++q) {
    const GlobalZeroObservable obs(q);
    for (std::uint64_t k = 0; k < 6; ++k, ++row) {
      Rng rng(1000 * q + k);
      Circuit c(q);
      for (int block = 0; block < 4; ++block) {
        test_support::add_random_ops(c, rng, 7);
        add_entangling_layer(c, EntanglerGate::kCz, EntanglerTopology::kLinear);
      }
      const auto params =
          rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
      for (std::size_t m = 0; m < 3; ++m) {
        EXPECT_EQ(noisy_state_digest(simulate_noisy(c, params, models[m]), obs),
                  kPins[row][m])
            << "q=" << q << " circuit " << k << " model " << m;
      }
    }
  }
}

}  // namespace
}  // namespace qbarren
