// Tests for reduced density matrices and the Meyer-Wallach measure.
#include "qbarren/qsim/entanglement.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-12;

TEST(ReducedDensity, ProductStateIsPure) {
  StateVector s(2);
  s.apply_single_qubit(gates::u3(0.7, 0.1, 0.4), 0);
  s.apply_single_qubit(gates::u3(1.9, -0.6, 0.2), 1);
  for (std::size_t q = 0; q < 2; ++q) {
    const ComplexMatrix rho = reduced_density_matrix_1q(s, q);
    // trace 1 and purity 1.
    EXPECT_NEAR((rho(0, 0) + rho(1, 1)).real(), 1.0, kTol);
    EXPECT_NEAR(single_qubit_purity(s, q), 1.0, kTol);
  }
}

TEST(ReducedDensity, BellStateIsMaximallyMixed) {
  StateVector bell(2);
  bell.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(bell, gates::pauli_x(), 0, 1);
  for (std::size_t q = 0; q < 2; ++q) {
    const ComplexMatrix rho = reduced_density_matrix_1q(bell, q);
    EXPECT_NEAR(std::abs(rho(0, 0) - Complex{0.5, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(rho(1, 1) - Complex{0.5, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(rho(0, 1)), 0.0, kTol);
    EXPECT_NEAR(single_qubit_purity(bell, q), 0.5, kTol);
  }
}

TEST(ReducedDensity, KnownSuperposition) {
  // RY(theta)|0>: rho = [[cos^2(t/2), sin*cos], [sin*cos, sin^2(t/2)]].
  const double theta = 0.9;
  StateVector s(1);
  s.apply_single_qubit(gates::ry(theta), 0);
  const ComplexMatrix rho = reduced_density_matrix_1q(s, 0);
  const double c = std::cos(theta / 2.0);
  const double sn = std::sin(theta / 2.0);
  EXPECT_NEAR(rho(0, 0).real(), c * c, kTol);
  EXPECT_NEAR(rho(1, 1).real(), sn * sn, kTol);
  EXPECT_NEAR(rho(0, 1).real(), sn * c, kTol);
}

TEST(ReducedDensity, ValidatesQubit) {
  const StateVector s(2);
  EXPECT_THROW((void)reduced_density_matrix_1q(s, 2), InvalidArgument);
}

TEST(MeyerWallach, ZeroForProductStates) {
  StateVector s(3);
  s.apply_single_qubit(gates::u3(0.4, 0.2, 1.0), 0);
  s.apply_single_qubit(gates::hadamard(), 2);
  EXPECT_NEAR(meyer_wallach(s), 0.0, kTol);
}

TEST(MeyerWallach, OneForBellState) {
  StateVector bell(2);
  bell.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(bell, gates::pauli_x(), 0, 1);
  EXPECT_NEAR(meyer_wallach(bell), 1.0, kTol);
}

TEST(MeyerWallach, GhzValue) {
  // GHZ_n: every single-qubit marginal is I/2 -> Q = 1.
  StateVector ghz(3);
  ghz.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(ghz, gates::pauli_x(), 0, 1);
  reference::apply_controlled(ghz, gates::pauli_x(), 1, 2);
  EXPECT_NEAR(meyer_wallach(ghz), 1.0, kTol);
}

TEST(MeyerWallach, WStateValue) {
  // |W3> = (|001> + |010> + |100>)/sqrt(3): each marginal has purity
  // 1 - 2*(2/9) ... known Q(W_n) = 2 * (2/n)(1 - 1/n)... For n=3:
  // rho_q = diag(2/3, 1/3) -> purity 5/9 -> Q = 2(1 - 5/9) = 8/9.
  const double a = 1.0 / std::sqrt(3.0);
  StateVector w(3, {Complex{0, 0}, Complex{a, 0}, Complex{a, 0},
                    Complex{0, 0}, Complex{a, 0}, Complex{0, 0},
                    Complex{0, 0}, Complex{0, 0}});
  EXPECT_NEAR(meyer_wallach(w), 8.0 / 9.0, kTol);
}

TEST(MeyerWallach, BoundedOnRandomCircuits) {
  Rng rng(4);
  VarianceAnsatzOptions options;
  options.layers = 10;
  const Circuit c = variance_ansatz(4, rng, options);
  const auto init = make_initializer("random");
  Rng prng(5);
  const auto params = init->initialize(c, prng);
  const double q = meyer_wallach(exec::simulate(c, params));
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, 1.0 + kTol);
  EXPECT_GT(q, 0.1);  // deep random circuits entangle heavily
}

TEST(MeyerWallach, NearIdentityInitializationStartsNearZero) {
  // The entanglement side of the initialization story: Xavier starts the
  // circuit near the (product) identity state.
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit c = training_ansatz(6, options);
  const auto xavier = make_initializer("xavier-normal");
  const auto small = make_initializer("small-normal");
  const auto random = make_initializer("random");
  Rng rng_a(6);
  Rng rng_b(6);
  Rng rng_c(6);
  const double q_xavier =
      meyer_wallach(exec::simulate(c, xavier->initialize(c, rng_a)));
  const double q_small =
      meyer_wallach(exec::simulate(c, small->initialize(c, rng_b)));
  const double q_random =
      meyer_wallach(exec::simulate(c, random->initialize(c, rng_c)));
  EXPECT_LT(q_xavier, q_random);
  EXPECT_LT(q_small, 0.2 * q_random);
}

}  // namespace
}  // namespace qbarren
