#include "qbarren/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qbarren/common/error.hpp"

namespace qbarren {

double mean(std::span<const double> xs) {
  QBARREN_REQUIRE(!xs.empty(), "mean: empty sample");
  double acc = 0.0;
  for (double x : xs) {
    acc += x;
  }
  return acc / static_cast<double>(xs.size());
}

namespace {

// Two-pass variance about the sample mean `mu`: numerically stable for the
// magnitudes we see (gradient samples spanning ~1e-8 .. 1e0).
double variance_impl(std::span<const double> xs, double mu, double denom) {
  double acc = 0.0;
  for (double x : xs) {
    const double d = x - mu;
    acc += d * d;
  }
  return acc / denom;
}

}  // namespace

double sample_variance(std::span<const double> xs) {
  QBARREN_REQUIRE(xs.size() >= 2, "sample_variance: need at least 2 samples");
  return variance_impl(xs, mean(xs), static_cast<double>(xs.size() - 1));
}

double sample_stddev(std::span<const double> xs) {
  return std::sqrt(sample_variance(xs));
}

double median(std::span<const double> xs) {
  QBARREN_REQUIRE(!xs.empty(), "median: empty sample");
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t n = v.size();
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
  // Selection finds the sorted order's middle values. Equal doubles share
  // their bits, except +0.0 and -0.0, whose order a sort leaves to its
  // implementation, and NaN breaks the ordering; samples where that can
  // matter take the sort of the original order, so the result stays
  // bit-identical to sorting every sample.
  const auto sort_median = [&] {
    v.assign(xs.begin(), xs.end());
    std::sort(v.begin(), v.end());
    return n % 2 == 1 ? *mid : 0.5 * (*(mid - 1) + *mid);
  };
  if (std::any_of(xs.begin(), xs.end(),
                  [](double x) { return std::isnan(x); })) {
    return sort_median();
  }
  std::nth_element(v.begin(), mid, v.end());
  const double upper = *mid;
  const double lower = n % 2 == 1 ? upper : *std::max_element(v.begin(), mid);
  if (upper == 0.0 || lower == 0.0) {
    bool positive_zero = false;
    bool negative_zero = false;
    for (const double x : v) {
      if (x == 0.0) (std::signbit(x) ? negative_zero : positive_zero) = true;
    }
    if (positive_zero && negative_zero) return sort_median();
  }
  return n % 2 == 1 ? upper : 0.5 * (lower + upper);
}

Summary summarize(std::span<const double> xs) {
  QBARREN_REQUIRE(!xs.empty(), "summarize: empty sample");
  Summary s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.variance = xs.size() >= 2
                   ? variance_impl(xs, s.mean,
                                   static_cast<double>(xs.size() - 1))
                   : 0.0;
  s.stddev = std::sqrt(s.variance);
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  s.min = *mn;
  s.max = *mx;
  s.median = median(xs);
  return s;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  QBARREN_REQUIRE(xs.size() == ys.size(), "linear_fit: size mismatch");
  QBARREN_REQUIRE(xs.size() >= 2, "linear_fit: need at least 2 points");
  const auto n = static_cast<double>(xs.size());
  const double mx = mean(xs);
  const double my = mean(ys);

  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) {
    throw NumericalError("linear_fit: all x values identical");
  }

  LinearFit fit;
  fit.n = xs.size();
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  // Residual sum of squares and derived diagnostics.
  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    const double r = ys[i] - pred;
    ss_res += r * r;
  }
  fit.r_squared = (syy > 0.0) ? 1.0 - ss_res / syy : 1.0;
  if (xs.size() > 2) {
    const double sigma2 = ss_res / (n - 2.0);
    fit.slope_stderr = std::sqrt(sigma2 / sxx);
  }
  return fit;
}

std::vector<double> log_transform(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    if (!(x > 0.0)) {
      throw NumericalError("log_transform: non-positive value");
    }
    out.push_back(std::log(x));
  }
  return out;
}

}  // namespace qbarren
