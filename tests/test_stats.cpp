// Unit tests for descriptive statistics and the OLS fit that underpins the
// variance-decay analysis.
#include "qbarren/common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "qbarren/common/error.hpp"
#include "qbarren/common/rng.hpp"

namespace qbarren {
namespace {

TEST(Mean, KnownValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Mean, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(mean(xs), 42.0);
}

TEST(Mean, RejectsEmpty) {
  const std::vector<double> xs;
  EXPECT_THROW((void)mean(xs), InvalidArgument);
}

TEST(Variance, KnownValues) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(population_variance(xs), 4.0);
  EXPECT_NEAR(sample_variance(xs), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(Variance, ConstantSampleIsZero) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(sample_variance(xs), 0.0);
  EXPECT_DOUBLE_EQ(population_variance(xs), 0.0);
}

TEST(Variance, SampleRequiresTwo) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)sample_variance(one), InvalidArgument);
  EXPECT_DOUBLE_EQ(population_variance(one), 0.0);
}

TEST(Variance, StableForTinyMagnitudes) {
  // Gradient samples in deep-plateau regimes are ~1e-8; two-pass variance
  // must not lose them to cancellation.
  const std::vector<double> xs{1e-8, 2e-8, 3e-8};
  EXPECT_NEAR(sample_variance(xs), 1e-16, 1e-20);
}

TEST(Stddev, IsSqrtOfVariance) {
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_DOUBLE_EQ(sample_stddev(xs), std::sqrt(2.0));
}

TEST(Median, OddAndEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Median, DoesNotMutateInput) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  (void)median(xs);
  EXPECT_EQ(xs[0], 5.0);
  EXPECT_EQ(xs[1], 1.0);
}

/// Test oracle: the median by a full sort, which `median` must match bit
/// for bit.
double sorted_median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

TEST(Median, BitIdenticalToTheSortedMedian) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(2024);
  std::vector<std::vector<double>> samples;
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 10u, 199u, 200u, 201u}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> normal = rng.normal_vector(n);
      std::vector<double> duplicates(n);  // few distinct values
      std::vector<double> gradients(n);   // ~30 % exact +0.0, like Fig 5a
      std::vector<double> mixed_zeros(n);  // +0.0, -0.0 and a few others
      for (std::size_t i = 0; i < n; ++i) {
        duplicates[i] = static_cast<double>(rng.index(4)) - 1.5;
        gradients[i] = rng.bernoulli(0.3) ? 0.0 : 1e-3 * rng.normal();
        const std::size_t pick = rng.index(5);
        mixed_zeros[i] = pick < 2 ? 0.0 : pick < 4 ? -0.0 : rng.normal();
      }
      std::vector<double> with_nan = normal;
      with_nan[rng.index(n)] = nan;
      samples.insert(samples.end(),
                     {normal, duplicates, gradients, mixed_zeros, with_nan});
    }
  }
  samples.push_back(std::vector<double>(200, 0.0));
  samples.push_back({-0.0, 0.0});
  samples.push_back({0.0, -0.0});
  samples.push_back({-0.0, -0.0, 1.0});
  samples.push_back({nan, 1.0, 2.0, nan});
  for (const std::vector<double>& xs : samples) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(median(xs)),
              std::bit_cast<std::uint64_t>(sorted_median(xs)))
        << "n = " << xs.size();
  }
}

TEST(Summarize, AllFieldsConsistent) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 100.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(s.variance));
}

TEST(Summarize, SingleElementHasZeroVariance) {
  const std::vector<double> xs{7.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(LinearFit, RecoversExactLine) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(-2.5 * x + 7.0);
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, -2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope_stderr, 0.0, 1e-9);
  EXPECT_EQ(fit.n, 4u);
}

TEST(LinearFit, KnownNoisyFit) {
  // Hand-checked least squares: x = {0,1,2}, y = {0, 1, 1}.
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 1.0, 1.0};
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0 / 6.0, 1e-12);
  EXPECT_GT(fit.r_squared, 0.7);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(LinearFit, TwoPointsAreExact) {
  const std::vector<double> xs{1.0, 3.0};
  const std::vector<double> ys{2.0, 8.0};
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
}

TEST(LinearFit, ConstantYGivesZeroSlope) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{4.0, 4.0, 4.0};
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
  // R^2 is conventionally 1 for a perfect fit of a constant.
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(LinearFit, RejectsDegenerateInput) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_THROW((void)linear_fit(xs, ys), NumericalError);

  const std::vector<double> one_x{1.0};
  const std::vector<double> one_y{1.0};
  EXPECT_THROW((void)linear_fit(one_x, one_y), InvalidArgument);

  const std::vector<double> two{1.0, 2.0};
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW((void)linear_fit(two, three), InvalidArgument);
}

TEST(LinearFit, SlopeStderrShrinksWithMoreData) {
  Rng rng(99);
  auto make_fit = [&](std::size_t n) {
    std::vector<double> xs(n);
    std::vector<double> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = static_cast<double>(i);
      ys[i] = 2.0 * xs[i] + rng.normal(0.0, 1.0);
    }
    return linear_fit(xs, ys);
  };
  EXPECT_GT(make_fit(10).slope_stderr, make_fit(1000).slope_stderr);
}

TEST(LogTransform, ComputesNaturalLog) {
  const std::vector<double> xs{1.0, std::exp(1.0), std::exp(2.0)};
  const auto logs = log_transform(xs);
  ASSERT_EQ(logs.size(), 3u);
  EXPECT_NEAR(logs[0], 0.0, 1e-12);
  EXPECT_NEAR(logs[1], 1.0, 1e-12);
  EXPECT_NEAR(logs[2], 2.0, 1e-12);
}

TEST(LogTransform, RejectsNonPositive) {
  const std::vector<double> zero{1.0, 0.0};
  EXPECT_THROW((void)log_transform(zero), NumericalError);
  const std::vector<double> negative{-1.0};
  EXPECT_THROW((void)log_transform(negative), NumericalError);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> up{2.0, 4.0, 6.0};
  const std::vector<double> down{6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, down), -1.0, 1e-12);
}

TEST(Pearson, RejectsConstantInput) {
  const std::vector<double> xs{1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW((void)pearson_correlation(xs, ys), NumericalError);
}

// Property sweep: OLS of an exponential decay recovers the decay rate after
// log transform — exactly the pipeline the variance experiment uses.
class DecayRecovery : public ::testing::TestWithParam<double> {};

TEST_P(DecayRecovery, LogLinearFitRecoversRate) {
  const double rate = GetParam();
  std::vector<double> qubits;
  std::vector<double> variances;
  for (int q = 2; q <= 10; q += 2) {
    qubits.push_back(q);
    variances.push_back(0.5 * std::exp(-rate * q));
  }
  const LinearFit fit = linear_fit(qubits, log_transform(variances));
  EXPECT_NEAR(fit.slope, -rate, 1e-10);
  EXPECT_NEAR(fit.intercept, std::log(0.5), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, DecayRecovery,
                         ::testing::Values(0.1, 0.5, 0.6931, 1.0, 1.3863,
                                           2.0));

}  // namespace
}  // namespace qbarren
