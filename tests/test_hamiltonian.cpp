// Tests for Pauli-sum Hamiltonians, the transverse-field Ising factory,
// and the power-iteration ground-state solver.
#include "qbarren/obs/hamiltonian.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

TEST(PauliSum, ValidatesTerms) {
  EXPECT_THROW(PauliSumObservable({}), InvalidArgument);
  EXPECT_THROW(PauliSumObservable({{1.0, "XZ"}, {1.0, "X"}}),
               InvalidArgument);
  EXPECT_THROW(PauliSumObservable({{1.0, "XA"}}), InvalidArgument);
  EXPECT_NO_THROW(PauliSumObservable({{1.0, "XZ"}, {-0.5, "IY"}}));
}

TEST(PauliSum, ExpectationIsLinearCombination) {
  // H = 2 Z - 3 X on one qubit; on |0>: <Z> = 1, <X> = 0 -> <H> = 2.
  const PauliSumObservable h({{2.0, "Z"}, {-3.0, "X"}});
  const StateVector zero(1);
  EXPECT_NEAR(h.expectation(zero), 2.0, 1e-12);

  // On |+>: <Z> = 0, <X> = 1 -> <H> = -3.
  StateVector plus(1);
  plus.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(h.expectation(plus), -3.0, 1e-12);
}

TEST(PauliSum, ApplyConsistentWithExpectation) {
  const PauliSumObservable h({{0.7, "ZZ"}, {-1.2, "XI"}, {0.3, "IY"}});
  StateVector s(2);
  s.apply_single_qubit(gates::u3(0.8, 0.2, 1.1), 0);
  s.apply_single_qubit(gates::u3(1.9, -0.5, 0.3), 1);
  s.apply_cz(0, 1);
  EXPECT_NEAR(h.expectation(s), s.inner_product(h.apply(s)).real(), 1e-11);
}

TEST(PauliSum, OneNormSumsAbsoluteCoefficients) {
  const PauliSumObservable h({{2.0, "Z"}, {-3.0, "X"}});
  EXPECT_DOUBLE_EQ(h.one_norm(), 5.0);
}

TEST(PauliSum, ExpectationBoundedByOneNorm) {
  const PauliSumObservable h({{0.5, "ZZ"}, {0.25, "XX"}});
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(s, gates::pauli_x(), 0, 1);
  EXPECT_LE(std::abs(h.expectation(s)), h.one_norm() + 1e-12);
}

TEST(Tfi, TermStructure) {
  const PauliSumObservable h = transverse_field_ising(4, 1.0, 0.5);
  // 3 ZZ bonds + 4 X fields.
  EXPECT_EQ(h.terms().size(), 7u);
  EXPECT_EQ(h.num_qubits(), 4u);
  EXPECT_EQ(h.terms()[0].paulis, "ZZII");
  EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, -1.0);
  EXPECT_EQ(h.terms()[3].paulis, "XIII");
  EXPECT_DOUBLE_EQ(h.terms()[3].coefficient, -0.5);
  EXPECT_THROW((void)transverse_field_ising(1, 1.0, 1.0), InvalidArgument);
}

TEST(Tfi, ZeroFieldGroundEnergyIsClassical) {
  // h = 0: H = -J sum ZZ; ground state |00...0> with energy -J (n-1).
  const PauliSumObservable h = transverse_field_ising(4, 1.0, 0.0);
  EXPECT_NEAR(ground_state_energy(h), -3.0, 1e-8);
}

TEST(Tfi, TwoQubitCriticalGroundEnergyIsMinusSqrt5) {
  // n=2, J=h=1: eigenvalues of -ZZ - X0 - X1 are {-sqrt(5), -1, 1,
  // sqrt(5)}; ground energy -sqrt(5) (worked in tests/README-free form).
  const PauliSumObservable h = transverse_field_ising(2, 1.0, 1.0);
  EXPECT_NEAR(ground_state_energy(h), -std::sqrt(5.0), 1e-8);
}

TEST(Tfi, GroundEnergyLowerBoundsVariationalEnergies) {
  const PauliSumObservable h = transverse_field_ising(3, 1.0, 0.7);
  const double e0 = ground_state_energy(h);
  // A handful of product states must all be above the ground energy.
  for (const double theta : {0.0, 0.4, 1.2, 2.9}) {
    StateVector s(3);
    for (std::size_t q = 0; q < 3; ++q) {
      s.apply_single_qubit(gates::ry(theta), q);
    }
    EXPECT_GE(h.expectation(s), e0 - 1e-9) << theta;
  }
}

TEST(Tfi, StrongFieldGroundStateApproachesAllPlus) {
  // h >> J: ground state ~ |+...+> with energy ~ -h n.
  const PauliSumObservable h = transverse_field_ising(3, 0.01, 2.0);
  EXPECT_NEAR(ground_state_energy(h), -6.0, 0.05);
}

TEST(GroundState, WidthLimitEnforced) {
  std::vector<PauliTerm> terms{{1.0, std::string(13, 'Z')}};
  const PauliSumObservable h(terms);
  EXPECT_THROW((void)ground_state_energy(h), InvalidArgument);
}

TEST(PauliSum, GradientEnginesAgreeOnHamiltonianCost) {
  // Hamiltonians plug into the standard gradient machinery.
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  const PauliSumObservable h = transverse_field_ising(3, 1.0, 1.0);
  Rng rng(3);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0);

  const ParameterShiftEngine shift;
  const AdjointEngine adjoint;
  const auto gs = shift.gradient(c, h, params);
  const auto ga = adjoint.gradient(c, h, params);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], ga[i], 1e-10);
  }
}

}  // namespace
}  // namespace qbarren
