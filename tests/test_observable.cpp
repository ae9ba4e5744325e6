// Tests for the observable implementations: hand-computed expectations and
// consistency between expectation() and apply().
#include "qbarren/obs/observable.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/common/rng.hpp"
#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-12;

StateVector random_state(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> amps(std::size_t{1} << n);
  for (auto& a : amps) a = Complex{rng.normal(), rng.normal()};
  StateVector s(n, amps);
  s.normalize();
  return s;
}

TEST(GlobalZero, ZeroOnZeroState) {
  const GlobalZeroObservable obs(3);
  const StateVector s(3);
  EXPECT_NEAR(obs.expectation(s), 0.0, kTol);
}

TEST(GlobalZero, OneOnOrthogonalState) {
  const GlobalZeroObservable obs(2);
  StateVector s(2);
  s.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(obs.expectation(s), 1.0, kTol);
}

TEST(GlobalZero, HalfOnEqualSuperpositionOfOneQubit) {
  const GlobalZeroObservable obs(1);
  StateVector s(1);
  s.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(obs.expectation(s), 0.5, kTol);
}

TEST(GlobalZero, ApplyZeroesFirstAmplitude) {
  const GlobalZeroObservable obs(2);
  const StateVector s = random_state(2, 3);
  const StateVector hs = obs.apply(s);
  EXPECT_EQ(hs.amplitude(0), (Complex{0.0, 0.0}));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(hs.amplitude(i), s.amplitude(i));
  }
}

TEST(GlobalZero, ExpectationConsistentWithApply) {
  const GlobalZeroObservable obs(3);
  const StateVector s = random_state(3, 5);
  EXPECT_NEAR(obs.expectation(s), s.inner_product(obs.apply(s)).real(),
              1e-11);
}

TEST(GlobalZero, BoundedInUnitInterval) {
  const GlobalZeroObservable obs(3);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const double v = obs.expectation(random_state(3, seed));
    EXPECT_GE(v, -kTol);
    EXPECT_LE(v, 1.0 + kTol);
  }
}

TEST(GlobalZero, WidthValidated) {
  const GlobalZeroObservable obs(2);
  const StateVector wrong(3);
  EXPECT_THROW((void)obs.expectation(wrong), InvalidArgument);
  EXPECT_THROW((void)obs.apply(wrong), InvalidArgument);
  EXPECT_THROW(GlobalZeroObservable(0), InvalidArgument);
}

TEST(LocalZero, ZeroOnZeroState) {
  const LocalZeroObservable obs(3);
  const StateVector s(3);
  EXPECT_NEAR(obs.expectation(s), 0.0, kTol);
}

TEST(LocalZero, OneOnAllOnesState) {
  const LocalZeroObservable obs(3);
  StateVector s(3);
  for (std::size_t q = 0; q < 3; ++q) {
    s.apply_single_qubit(gates::pauli_x(), q);
  }
  EXPECT_NEAR(obs.expectation(s), 1.0, kTol);
}

TEST(LocalZero, FractionalOnPartialFlip) {
  // |001>: one of three qubits is |1> -> C = 1/3.
  const LocalZeroObservable obs(3);
  StateVector s(3);
  s.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(obs.expectation(s), 1.0 / 3.0, kTol);
}

TEST(LocalZero, ExpectationConsistentWithApply) {
  const LocalZeroObservable obs(3);
  const StateVector s = random_state(3, 7);
  EXPECT_NEAR(obs.expectation(s), s.inner_product(obs.apply(s)).real(),
              1e-11);
}

TEST(LocalZero, LessSensitiveThanGlobalOnSingleFlip) {
  // The local cost penalizes a single flipped qubit by 1/n, the global
  // cost by 1 — the structural reason local costs avoid barren plateaus.
  const std::size_t n = 4;
  StateVector s(n);
  s.apply_single_qubit(gates::pauli_x(), 2);
  const GlobalZeroObservable global(n);
  const LocalZeroObservable local(n);
  EXPECT_NEAR(global.expectation(s), 1.0, kTol);
  EXPECT_NEAR(local.expectation(s), 0.25, kTol);
}

TEST(PauliString, ValidationRules) {
  EXPECT_THROW(PauliStringObservable(""), InvalidArgument);
  EXPECT_THROW(PauliStringObservable("XA"), InvalidArgument);
  EXPECT_NO_THROW(PauliStringObservable("IXYZ"));
}

TEST(PauliString, ZExpectationOnBasisStates) {
  const PauliStringObservable z("Z");
  StateVector zero(1);
  EXPECT_NEAR(z.expectation(zero), 1.0, kTol);
  StateVector one(1);
  one.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(z.expectation(one), -1.0, kTol);
}

TEST(PauliString, XExpectationOnPlusState) {
  const PauliStringObservable x("X");
  StateVector plus(1);
  plus.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(x.expectation(plus), 1.0, kTol);
}

TEST(PauliString, YExpectationOnYEigenstate) {
  // |+i> = (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y.
  const PauliStringObservable y("Y");
  const double s = 1.0 / std::sqrt(2.0);
  const StateVector plus_i(1, {Complex{s, 0.0}, Complex{0.0, s}});
  EXPECT_NEAR(y.expectation(plus_i), 1.0, kTol);
}

TEST(PauliString, ZzOnBellState) {
  // (|00> + |11>)/sqrt(2) has <ZZ> = +1, <Z on either qubit> = 0.
  StateVector bell(2);
  bell.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(bell, gates::pauli_x(), 0, 1);
  EXPECT_NEAR(PauliStringObservable("ZZ").expectation(bell), 1.0, kTol);
  EXPECT_NEAR(PauliStringObservable("ZI").expectation(bell), 0.0, kTol);
  EXPECT_NEAR(PauliStringObservable("IZ").expectation(bell), 0.0, kTol);
  EXPECT_NEAR(PauliStringObservable("XX").expectation(bell), 1.0, kTol);
}

TEST(PauliString, IdentityStringGivesNorm) {
  const PauliStringObservable id("II");
  const StateVector s = random_state(2, 11);
  EXPECT_NEAR(id.expectation(s), 1.0, 1e-11);
}

TEST(PauliString, ExpectationIsRealOnRandomStates) {
  const PauliStringObservable obs("XYZ");
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const StateVector s = random_state(3, seed);
    const Complex ip = s.inner_product(obs.apply(s));
    EXPECT_NEAR(ip.imag(), 0.0, 1e-11);  // Hermitian => real expectation
    EXPECT_GE(obs.expectation(s), -1.0 - kTol);
    EXPECT_LE(obs.expectation(s), 1.0 + kTol);
  }
}

TEST(PauliString, WidthValidated) {
  const PauliStringObservable obs("ZZ");
  const StateVector wrong(3);
  EXPECT_THROW((void)obs.apply(wrong), InvalidArgument);
}

TEST(MakeZObservable, PlacesZCorrectly) {
  const auto obs = make_z_observable(1, 3);
  EXPECT_EQ(obs->pauli_string(), "IZI");
  EXPECT_THROW((void)make_z_observable(3, 3), InvalidArgument);
}

TEST(ObservableNames, AreStable) {
  EXPECT_EQ(GlobalZeroObservable(2).name(), "global-zero");
  EXPECT_EQ(LocalZeroObservable(2).name(), "local-zero");
  EXPECT_EQ(PauliStringObservable("ZZ").name(), "pauli:ZZ");
}

}  // namespace
}  // namespace qbarren
