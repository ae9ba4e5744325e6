// Unit and property tests for the state-vector simulator, including
// cross-checks of the fast bit-twiddling kernels against the dense
// embed_* reference path.
#include "qbarren/qsim/statevector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/common/rng.hpp"
#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-12;

TEST(StateVector, StartsInZeroState) {
  const StateVector s(3);
  EXPECT_EQ(s.num_qubits(), 3u);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_EQ(s.amplitude(0), (Complex{1.0, 0.0}));
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(s.amplitude(i), (Complex{0.0, 0.0}));
  }
  EXPECT_NEAR(s.norm_squared(), 1.0, kTol);
}

TEST(StateVector, RejectsBadWidths) {
  EXPECT_THROW(StateVector(0), InvalidArgument);
  EXPECT_THROW(StateVector(29), InvalidArgument);
}

TEST(StateVector, ExplicitAmplitudesChecked) {
  EXPECT_THROW(StateVector(2, std::vector<Complex>(3)), InvalidArgument);
  EXPECT_THROW(StateVector(2, std::vector<Complex>(8)), InvalidArgument);
  const StateVector s(1, {Complex{0.0, 0.0}, Complex{1.0, 0.0}});
  EXPECT_EQ(s.probability(1), 1.0);
}

TEST(StateVector, PauliXFlipsTargetQubit) {
  StateVector s(3);
  s.apply_single_qubit(gates::pauli_x(), 1);
  EXPECT_NEAR(s.probability(0b010), 1.0, kTol);
}

TEST(StateVector, HadamardCreatesUniformSuperposition) {
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);
  s.apply_single_qubit(gates::hadamard(), 1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(s.probability(i), 0.25, kTol);
  }
}

TEST(StateVector, BellStateViaControlledX) {
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(s, gates::pauli_x(), 0, 1);
  EXPECT_NEAR(s.probability(0b00), 0.5, kTol);
  EXPECT_NEAR(s.probability(0b11), 0.5, kTol);
  EXPECT_NEAR(s.probability(0b01), 0.0, kTol);
  EXPECT_NEAR(s.probability(0b10), 0.0, kTol);
}

TEST(StateVector, CzFlipsPhaseOnlyOnBothOnes) {
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);
  s.apply_single_qubit(gates::hadamard(), 1);
  reference::apply_cz(s, 0, 1);
  EXPECT_NEAR(s.amplitude(0b11).real(), -0.5, kTol);
  EXPECT_NEAR(s.amplitude(0b00).real(), 0.5, kTol);
  EXPECT_NEAR(s.amplitude(0b01).real(), 0.5, kTol);
  EXPECT_NEAR(s.amplitude(0b10).real(), 0.5, kTol);
}

TEST(StateVector, CzIsSymmetric) {
  Rng rng(3);
  StateVector a(3);
  StateVector b(3);
  // Prepare an arbitrary product state on both copies.
  for (std::size_t q = 0; q < 3; ++q) {
    const auto u = gates::u3(rng.uniform(0.0, M_PI), rng.uniform(0.0, 2.0),
                             rng.uniform(0.0, 2.0));
    a.apply_single_qubit(u, q);
    b.apply_single_qubit(u, q);
  }
  reference::apply_cz(a, 0, 2);
  reference::apply_cz(b, 2, 0);
  EXPECT_NEAR(a.fidelity(b), 1.0, kTol);
}

TEST(StateVector, QubitIndexValidation) {
  StateVector s(2);
  EXPECT_THROW(s.apply_single_qubit(gates::pauli_x(), 2), InvalidArgument);
  EXPECT_THROW(reference::apply_cz(s, 0, 2), InvalidArgument);
  EXPECT_THROW(reference::apply_cz(s, 1, 1), InvalidArgument);
  EXPECT_THROW(reference::apply_controlled(s, gates::pauli_x(), 0, 0), InvalidArgument);
  EXPECT_THROW(s.apply_two_qubit(gates::cz(), 1, 1), InvalidArgument);
  EXPECT_THROW((void)s.probability(4), InvalidArgument);
  EXPECT_THROW((void)s.amplitude(4), InvalidArgument);
  EXPECT_THROW((void)s.probability_one(2), InvalidArgument);
}

TEST(StateVector, MatrixShapeValidation) {
  StateVector s(2);
  EXPECT_THROW(s.apply_single_qubit(gates::cz(), 0), InvalidArgument);
  EXPECT_THROW(s.apply_two_qubit(gates::pauli_x(), 0, 1), InvalidArgument);
}

TEST(StateVector, SingleQubitKernelMatchesDenseReference) {
  Rng rng(7);
  for (std::size_t target = 0; target < 3; ++target) {
    StateVector fast(3);
    // Arbitrary initial state.
    std::vector<Complex> amps(8);
    for (auto& a : amps) a = Complex{rng.normal(), rng.normal()};
    fast = StateVector(3, amps);
    fast.normalize();
    const StateVector initial = fast;

    const ComplexMatrix u = gates::u3(0.7, 0.3, -0.9);
    fast.apply_single_qubit(u, target);

    const ComplexMatrix full = embed_single_qubit(u, target, 3);
    const std::vector<Complex> expected = full.apply(initial.amplitudes());
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(std::abs(fast.amplitudes()[i] - expected[i]), 0.0, 1e-11)
          << "target " << target << " index " << i;
    }
  }
}

TEST(StateVector, TwoQubitKernelMatchesDenseReference) {
  Rng rng(8);
  const std::vector<std::pair<std::size_t, std::size_t>> pairs{
      {0, 1}, {0, 2}, {1, 2}};
  for (const auto& [lo, hi] : pairs) {
    std::vector<Complex> amps(8);
    for (auto& a : amps) a = Complex{rng.normal(), rng.normal()};
    StateVector fast(3, amps);
    fast.normalize();
    const StateVector initial = fast;

    const ComplexMatrix u = gates::crz(1.234);
    fast.apply_two_qubit(u, lo, hi);

    const ComplexMatrix full = embed_two_qubit(u, lo, hi, 3);
    const std::vector<Complex> expected = full.apply(initial.amplitudes());
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(std::abs(fast.amplitudes()[i] - expected[i]), 0.0, 1e-11)
          << "pair (" << lo << "," << hi << ") index " << i;
    }
  }
}

TEST(StateVector, ControlledKernelMatchesCnotMatrix) {
  // apply_controlled(X, c=1, t=0) must equal the embedded CNOT with control
  // mapped to matrix bit 0.
  std::vector<Complex> amps{{0.1, 0.2}, {0.3, -0.1}, {0.5, 0.0}, {0.2, 0.4}};
  StateVector fast(2, amps);
  fast.normalize();
  StateVector ref = fast;

  reference::apply_controlled(fast, gates::pauli_x(), 1, 0);
  // gates::cnot() has control = low-order matrix bit; here control is
  // qubit 1, so embed with q_low = 1 (control), q_high = 0 (target).
  const ComplexMatrix full = embed_two_qubit(gates::cnot(), 1, 0, 2);
  const std::vector<Complex> expected = full.apply(ref.amplitudes());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(fast.amplitudes()[i] - expected[i]), 0.0, 1e-12);
  }
}

TEST(StateVector, ProbabilityOneSumsCorrectly) {
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);  // qubit 0 in |+>
  EXPECT_NEAR(s.probability_one(0), 0.5, kTol);
  EXPECT_NEAR(s.probability_one(1), 0.0, kTol);
}

TEST(StateVector, InnerProductAndFidelity) {
  StateVector a(1);
  StateVector b(1);
  b.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 0.0, kTol);
  EXPECT_NEAR(a.fidelity(a), 1.0, kTol);

  StateVector plus(1);
  plus.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(a.fidelity(plus), 0.5, kTol);

  const StateVector wide(2);
  EXPECT_THROW((void)a.inner_product(wide), InvalidArgument);
}

TEST(StateVector, NormalizeZeroVectorThrows) {
  StateVector s(1, {Complex{0.0, 0.0}, Complex{0.0, 0.0}});
  EXPECT_THROW(s.normalize(), NumericalError);
}

TEST(StateVector, NormalizeRescales) {
  StateVector s(1, {Complex{3.0, 0.0}, Complex{4.0, 0.0}});
  s.normalize();
  EXPECT_NEAR(s.norm_squared(), 1.0, kTol);
  EXPECT_NEAR(s.probability(0), 9.0 / 25.0, kTol);
}

// Property sweep: the controlled-gate kernel matches the dense embedded
// CNOT for every (control, target) pair on a 4-qubit register.
class ControlledPairs
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(ControlledPairs, MatchesDenseReference) {
  const auto [control, target] = GetParam();
  Rng rng(splitmix64(control * 16 + target));
  std::vector<Complex> amps(16);
  for (auto& a : amps) a = Complex{rng.normal(), rng.normal()};
  StateVector fast(4, amps);
  fast.normalize();
  const StateVector initial = fast;

  reference::apply_controlled(fast, gates::pauli_x(), control, target);
  const ComplexMatrix full =
      embed_two_qubit(gates::cnot(), control, target, 4);
  const std::vector<Complex> expected = full.apply(initial.amplitudes());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(std::abs(fast.amplitudes()[i] - expected[i]), 0.0, 1e-11)
        << "c=" << control << " t=" << target << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ControlledPairs,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(0, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 0),
                      std::make_pair<std::size_t, std::size_t>(0, 3),
                      std::make_pair<std::size_t, std::size_t>(3, 0),
                      std::make_pair<std::size_t, std::size_t>(1, 2),
                      std::make_pair<std::size_t, std::size_t>(2, 1),
                      std::make_pair<std::size_t, std::size_t>(2, 3),
                      std::make_pair<std::size_t, std::size_t>(3, 2),
                      std::make_pair<std::size_t, std::size_t>(1, 3),
                      std::make_pair<std::size_t, std::size_t>(3, 1)));

// Property sweep: random circuits of unitary kernels preserve the norm on
// registers of every width.
class NormPreservation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NormPreservation, RandomGateSequencePreservesNorm) {
  const std::size_t n = GetParam();
  Rng rng(splitmix64(n));
  StateVector s(n);
  for (int step = 0; step < 200; ++step) {
    const std::size_t q = rng.index(n);
    switch (rng.index(4)) {
      case 0:
        s.apply_single_qubit(
            gates::rotation(static_cast<gates::Axis>(rng.index(3)),
                            rng.uniform(0.0, 2.0 * M_PI)),
            q);
        break;
      case 1:
        s.apply_single_qubit(gates::hadamard(), q);
        break;
      case 2: {
        if (n >= 2) {
          std::size_t p = rng.index(n);
          if (p == q) p = (p + 1) % n;
          reference::apply_cz(s, q, p);
        }
        break;
      }
      case 3: {
        if (n >= 2) {
          std::size_t p = rng.index(n);
          if (p == q) p = (p + 1) % n;
          reference::apply_controlled(s, gates::pauli_x(), q, p);
        }
        break;
      }
    }
  }
  EXPECT_NEAR(s.norm_squared(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, NormPreservation,
                         ::testing::Values(1, 2, 3, 5, 8, 10, 12));

}  // namespace
}  // namespace qbarren
