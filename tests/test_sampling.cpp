// Tests for finite-shot measurement sampling.
#include "qbarren/qsim/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/qsim/gates.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

TEST(Sampling, DeterministicOutcomeOnBasisState) {
  StateVector s(2);
  s.apply_single_qubit(gates::pauli_x(), 1);  // |10>
  Rng rng(1);
  for (const std::size_t outcome : sample_basis_states(s, 100, rng)) {
    EXPECT_EQ(outcome, 0b10u);
  }
}

TEST(Sampling, ValidatesInputs) {
  const StateVector s(1);
  Rng rng(1);
  EXPECT_THROW((void)sample_basis_states(s, 0, rng), InvalidArgument);

  StateVector unnormalized(1, {Complex{2.0, 0.0}, Complex{0.0, 0.0}});
  EXPECT_THROW((void)sample_basis_states(unnormalized, 10, rng),
               InvalidArgument);
  EXPECT_THROW((void)estimate_probability(s, 2, 10, rng), InvalidArgument);
}

TEST(Sampling, FrequenciesMatchProbabilities) {
  StateVector s(2);
  s.apply_single_qubit(gates::ry(2.0 * std::acos(std::sqrt(0.7))), 0);
  // p(|00>) = 0.7, p(|01>) = 0.3.
  Rng rng(7);
  const auto counts = sample_counts(s, 50000, rng);
  EXPECT_NEAR(static_cast<double>(counts.at(0)) / 50000.0, 0.7, 0.01);
  EXPECT_NEAR(static_cast<double>(counts.at(1)) / 50000.0, 0.3, 0.01);
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_EQ(counts.count(3), 0u);
}

TEST(Sampling, EstimateProbabilityConverges) {
  StateVector s(1);
  s.apply_single_qubit(gates::hadamard(), 0);
  Rng rng(11);
  EXPECT_NEAR(estimate_probability(s, 0, 100000, rng), 0.5, 0.01);
}

TEST(Sampling, GlobalCostEstimatorOnZeroState) {
  const StateVector s(3);
  Rng rng(13);
  EXPECT_DOUBLE_EQ(estimate_global_cost(s, 1000, rng), 0.0);
}

TEST(Sampling, DeterministicGivenSeed) {
  StateVector s(2);
  s.apply_single_qubit(gates::hadamard(), 0);
  s.apply_single_qubit(gates::hadamard(), 1);
  Rng a(3);
  Rng b(3);
  EXPECT_EQ(sample_basis_states(s, 64, a), sample_basis_states(s, 64, b));
}

TEST(ShotNoise, StderrFormulaAndValidation) {
  EXPECT_DOUBLE_EQ(shot_noise_stderr(0.5, 100), std::sqrt(0.25 / 100.0));
  EXPECT_DOUBLE_EQ(shot_noise_stderr(0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(shot_noise_stderr(1.0, 100), 0.0);
  EXPECT_THROW((void)shot_noise_stderr(1.5, 100), InvalidArgument);
  EXPECT_THROW((void)shot_noise_stderr(0.5, 0), InvalidArgument);
}

TEST(ShotNoise, EmpiricalSpreadMatchesFormula) {
  // Repeat a 1000-shot estimate of p = 0.5 many times; the empirical
  // standard deviation of the estimates should match sqrt(p(1-p)/shots).
  StateVector s(1);
  s.apply_single_qubit(gates::hadamard(), 0);
  const std::size_t shots = 1000;
  std::vector<double> estimates;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng = Rng(42).child(trial);
    estimates.push_back(estimate_probability(s, 0, shots, rng));
  }
  double mean_est = 0.0;
  for (double e : estimates) mean_est += e;
  mean_est /= static_cast<double>(estimates.size());
  double var = 0.0;
  for (double e : estimates) var += (e - mean_est) * (e - mean_est);
  var /= static_cast<double>(estimates.size() - 1);
  EXPECT_NEAR(std::sqrt(var), shot_noise_stderr(0.5, shots), 0.004);
}

// Property sweep: sampled distribution matches the exact one in total
// variation for a range of states.
class SamplingFidelity : public ::testing::TestWithParam<double> {};

TEST_P(SamplingFidelity, TotalVariationSmall) {
  const double theta = GetParam();
  StateVector s(2);
  s.apply_single_qubit(gates::ry(theta), 0);
  reference::apply_controlled(s, gates::pauli_x(), 0, 1);
  Rng rng(static_cast<std::uint64_t>(theta * 1000) + 1);
  const std::size_t shots = 40000;
  const auto counts = sample_counts(s, shots, rng);
  double tv = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double freq =
        counts.count(i)
            ? static_cast<double>(counts.at(i)) / static_cast<double>(shots)
            : 0.0;
    tv += std::abs(freq - s.probability(i));
  }
  EXPECT_LT(tv / 2.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Angles, SamplingFidelity,
                         ::testing::Values(0.3, 1.0, M_PI / 2.0, 2.5));

}  // namespace
}  // namespace qbarren
