// Descriptive statistics and ordinary least squares.
//
// The barren-plateau analysis reduces to two statistical primitives:
//   * the sample variance of gradient samples (one per random circuit), and
//   * an OLS fit of log-variance against qubit count, whose slope is the
//     "variance decay rate" the paper compares across initializers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace qbarren {

/// Arithmetic mean. Requires a non-empty range.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance (divides by n-1). Requires n >= 2.
[[nodiscard]] double sample_variance(std::span<const double> xs);

/// Sample standard deviation, sqrt(sample_variance). Requires n >= 2.
[[nodiscard]] double sample_stddev(std::span<const double> xs);

/// Median (averages the two central elements for even n). Requires n >= 1.
[[nodiscard]] double median(std::span<const double> xs);

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased sample variance (0 when count < 2)
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Computes a Summary of a non-empty sample.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Result of an ordinary-least-squares straight-line fit y = slope*x + b.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;      ///< coefficient of determination
  double slope_stderr = 0.0;   ///< standard error of the slope estimate
  std::size_t n = 0;           ///< number of points fitted
};

/// OLS fit of y against x. Requires xs.size() == ys.size() >= 2 and at
/// least two distinct x values; throws NumericalError on a degenerate
/// (vertical) configuration.
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

/// Element-wise natural log. Requires every element > 0 (throws
/// NumericalError otherwise) — used to linearize exponential decay.
[[nodiscard]] std::vector<double> log_transform(std::span<const double> xs);

}  // namespace qbarren
