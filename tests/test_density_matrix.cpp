// Tests for the density-matrix simulator: agreement with the state-vector
// path on unitary circuits, channel properties, and mixed-state readout.
#include "qbarren/dsim/density_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/common/rng.hpp"
#include "qbarren/dsim/channels.hpp"
#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-11;

TEST(DensityMatrix, StartsPureZero) {
  const DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.probability(0), 1.0, kTol);
  EXPECT_THROW(DensityMatrix(0), InvalidArgument);
  EXPECT_THROW(DensityMatrix(11), InvalidArgument);
}

TEST(DensityMatrix, PureFromStateVector) {
  StateVector psi(2);
  psi.apply_single_qubit(gates::hadamard(), 0);
  const DensityMatrix rho = DensityMatrix::pure(psi);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.probability(0), 0.5, kTol);
  EXPECT_NEAR(rho.probability(1), 0.5, kTol);
  EXPECT_NEAR(rho.element(0, 1).real(), 0.5, kTol);  // coherence present
}

TEST(DensityMatrix, MaximallyMixed) {
  const DensityMatrix rho = DensityMatrix::maximally_mixed(3);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0 / 8.0, kTol);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(rho.probability(i), 1.0 / 8.0, kTol);
  }
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStateVector) {
  Rng rng(1);
  StateVector psi(3);
  DensityMatrix rho(3);
  for (int step = 0; step < 25; ++step) {
    const std::size_t q = rng.index(3);
    switch (rng.index(3)) {
      case 0: {
        const auto u = gates::rotation(
            static_cast<gates::Axis>(rng.index(3)), rng.uniform(0.0, 6.0));
        psi.apply_single_qubit(u, q);
        rho.apply_unitary_1q(u, q);
        break;
      }
      case 1: {
        std::size_t p = (q + 1) % 3;
        psi.apply_cz(q, p);
        rho.apply_cz(q, p);
        break;
      }
      case 2: {
        std::size_t p = (q + 1) % 3;
        const auto u = gates::cnot();
        reference::apply_controlled(psi, gates::pauli_x(), q, p);
        rho.apply_unitary_2q(u, q, p);
        break;
      }
    }
  }
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(rho.probability(i), psi.probability(i), 1e-9) << i;
  }
  // Full matrix check: rho = |psi><psi|.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      const Complex expected = psi.amplitude(r) * std::conj(psi.amplitude(c));
      EXPECT_NEAR(std::abs(rho.element(r, c) - expected), 0.0, 1e-9);
    }
  }
}

TEST(DensityMatrix, ExpectationMatchesStateVectorOnPureStates) {
  StateVector psi(2);
  psi.apply_single_qubit(gates::u3(0.9, 0.4, -0.2), 0);
  reference::apply_controlled(psi, gates::pauli_x(), 0, 1);
  const DensityMatrix rho = DensityMatrix::pure(psi);

  const GlobalZeroObservable global(2);
  const LocalZeroObservable local(2);
  const PauliStringObservable zz("ZZ");
  EXPECT_NEAR(rho.expectation(global), global.expectation(psi), 1e-10);
  EXPECT_NEAR(rho.expectation(local), local.expectation(psi), 1e-10);
  EXPECT_NEAR(rho.expectation(zz), zz.expectation(psi), 1e-10);
}

TEST(DensityMatrix, ValidationErrors) {
  DensityMatrix rho(2);
  EXPECT_THROW(rho.apply_unitary_1q(gates::cz(), 0), InvalidArgument);
  EXPECT_THROW(rho.apply_unitary_1q(gates::pauli_x(), 2), InvalidArgument);
  EXPECT_THROW(rho.apply_unitary_2q(gates::cz(), 0, 0), InvalidArgument);
  EXPECT_THROW(rho.apply_cz(0, 0), InvalidArgument);
  EXPECT_THROW((void)rho.probability(4), InvalidArgument);
  EXPECT_THROW((void)rho.element(4, 0), InvalidArgument);
  const GlobalZeroObservable wrong(3);
  EXPECT_THROW((void)rho.expectation(wrong), InvalidArgument);
}

TEST(Channels, FactoriesValidateProbabilities) {
  EXPECT_THROW((void)channels::depolarizing(-0.1), InvalidArgument);
  EXPECT_THROW((void)channels::bit_flip(1.1), InvalidArgument);
  EXPECT_NO_THROW((void)channels::depolarizing(0.0));
  EXPECT_NO_THROW((void)channels::depolarizing_2q(1.0));
}

TEST(Channels, KrausCompletenessEnforced) {
  // A non-CPTP operator set must be rejected.
  std::vector<ComplexMatrix> bad{gates::pauli_x()};
  EXPECT_NO_THROW(KrausChannel{bad});  // X alone is unitary: fine
  bad.push_back(gates::pauli_z());     // X + Z: sum K^dag K = 2I
  EXPECT_THROW(KrausChannel{bad}, InvalidArgument);
}

TEST(Channels, DepolarizingShrinksBlochVector) {
  // Depolarizing with probability p maps <Z> -> (1 - 4p/3) <Z>.
  const double p = 0.3;
  DensityMatrix rho(1);  // |0><0|, <Z> = 1
  rho.apply_channel_1q(channels::depolarizing(p), 0);
  const PauliStringObservable z("Z");
  EXPECT_NEAR(rho.expectation(z), 1.0 - 4.0 * p / 3.0, kTol);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.hermiticity_error(), 0.0, kTol);
}

TEST(Channels, FullDepolarizingAlmostMixes) {
  // p = 3/4 sends any single-qubit state to the maximally mixed state.
  DensityMatrix rho(1);
  rho.apply_unitary_1q(gates::u3(1.1, 0.3, 0.7), 0);
  rho.apply_channel_1q(channels::depolarizing(0.75), 0);
  EXPECT_NEAR(rho.probability(0), 0.5, kTol);
  EXPECT_NEAR(rho.probability(1), 0.5, kTol);
  EXPECT_NEAR(rho.purity(), 0.5, kTol);
}

TEST(Channels, BitFlipMixesPopulations) {
  DensityMatrix rho(1);
  rho.apply_channel_1q(channels::bit_flip(0.25), 0);
  EXPECT_NEAR(rho.probability(0), 0.75, kTol);
  EXPECT_NEAR(rho.probability(1), 0.25, kTol);
}

TEST(Channels, PhaseFlipKillsCoherenceOnly) {
  StateVector plus(1);
  plus.apply_single_qubit(gates::hadamard(), 0);
  DensityMatrix rho = DensityMatrix::pure(plus);
  rho.apply_channel_1q(channels::phase_flip(0.5), 0);
  // Populations untouched, off-diagonal fully destroyed at p = 1/2.
  EXPECT_NEAR(rho.probability(0), 0.5, kTol);
  EXPECT_NEAR(rho.probability(1), 0.5, kTol);
  EXPECT_NEAR(std::abs(rho.element(0, 1)), 0.0, kTol);
}

TEST(Channels, AmplitudeDampingDecaysExcitedState) {
  DensityMatrix rho(1);
  rho.apply_unitary_1q(gates::pauli_x(), 0);  // |1><1|
  const double gamma = 0.4;
  rho.apply_channel_1q(channels::amplitude_damping(gamma), 0);
  EXPECT_NEAR(rho.probability(1), 1.0 - gamma, kTol);
  EXPECT_NEAR(rho.probability(0), gamma, kTol);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
}

TEST(Channels, AmplitudeDampingFixesGroundState) {
  DensityMatrix rho(1);  // already |0><0|
  rho.apply_channel_1q(channels::amplitude_damping(0.9), 0);
  EXPECT_NEAR(rho.probability(0), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
}

TEST(Channels, PhaseDampingPreservesPopulations) {
  StateVector plus(1);
  plus.apply_single_qubit(gates::hadamard(), 0);
  DensityMatrix rho = DensityMatrix::pure(plus);
  rho.apply_channel_1q(channels::phase_damping(0.6), 0);
  EXPECT_NEAR(rho.probability(0), 0.5, kTol);
  EXPECT_NEAR(rho.probability(1), 0.5, kTol);
  EXPECT_LT(std::abs(rho.element(0, 1)), 0.5);
  EXPECT_GT(std::abs(rho.element(0, 1)), 0.0);
}

TEST(Channels, TwoQubitDepolarizingTraceAndMixing) {
  StateVector bell(2);
  bell.apply_single_qubit(gates::hadamard(), 0);
  reference::apply_controlled(bell, gates::pauli_x(), 0, 1);
  DensityMatrix rho = DensityMatrix::pure(bell);
  rho.apply_channel_2q(channels::depolarizing_2q(0.5), 0, 1);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
  EXPECT_LT(rho.purity(), 1.0);
  EXPECT_NEAR(rho.hermiticity_error(), 0.0, 1e-10);
  // Full two-qubit depolarizing (p=1, 15/15 weight) maps to I/4... at
  // p = 1 the channel is (0)*rho + (1/15) sum_{P != II} P rho P, which for
  // the Bell state still mixes heavily:
  DensityMatrix rho2 = DensityMatrix::pure(bell);
  rho2.apply_channel_2q(channels::depolarizing_2q(1.0), 0, 1);
  EXPECT_NEAR(rho2.trace(), 1.0, 1e-10);
}

TEST(Channels, ChannelWidthValidated) {
  DensityMatrix rho(2);
  EXPECT_THROW(rho.apply_channel_1q(channels::depolarizing_2q(0.1), 0),
               InvalidArgument);
  EXPECT_THROW(rho.apply_channel_2q(channels::depolarizing(0.1), 0, 1),
               InvalidArgument);
}

// Property sweep: every factory channel is trace-preserving and maps
// Hermitian states to Hermitian states across probabilities.
class ChannelProperties : public ::testing::TestWithParam<double> {};

TEST_P(ChannelProperties, TracePreservingAndHermitian) {
  const double p = GetParam();
  StateVector psi(2);
  psi.apply_single_qubit(gates::u3(0.8, 1.1, -0.3), 0);
  reference::apply_controlled(psi, gates::pauli_x(), 0, 1);

  for (const auto& channel :
       {channels::depolarizing(p), channels::bit_flip(p),
        channels::phase_flip(p), channels::amplitude_damping(p),
        channels::phase_damping(p)}) {
    DensityMatrix rho = DensityMatrix::pure(psi);
    rho.apply_channel_1q(channel, 1);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10) << channel.name();
    EXPECT_NEAR(rho.hermiticity_error(), 0.0, 1e-10) << channel.name();
    EXPECT_LE(rho.purity(), 1.0 + 1e-10) << channel.name();
  }

  DensityMatrix rho = DensityMatrix::pure(psi);
  rho.apply_channel_2q(channels::depolarizing_2q(p), 0, 1);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
  EXPECT_NEAR(rho.hermiticity_error(), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelProperties,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace qbarren
