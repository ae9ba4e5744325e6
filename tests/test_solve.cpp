// Tests for the dense linear solvers (Cholesky / regularized SPD / LU).
#include "qbarren/linalg/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/common/rng.hpp"
#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

RealMatrix random_spd(std::size_t n, Rng& rng, double diag_boost = 0.5) {
  // A = B Bᵀ + diag_boost * I is SPD for any B.
  RealMatrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      b(r, c) = rng.normal();
    }
  }
  RealMatrix a = b * b.transpose();
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += diag_boost;
  }
  return a;
}

std::vector<double> multiply(const RealMatrix& a,
                             const std::vector<double>& x) {
  return a.apply(x);
}

double max_abs(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Cholesky, FactorizesKnownMatrix) {
  // A = [[4, 2], [2, 3]] = L Lᵀ with L = [[2, 0], [1, sqrt(2)]].
  const RealMatrix a(2, 2, {4.0, 2.0, 2.0, 3.0});
  const RealMatrix l = cholesky(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(l(0, 1), 0.0, 1e-12);
  EXPECT_LT(max_abs_diff(l * l.transpose(), a), 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  const RealMatrix indefinite(2, 2, {1.0, 2.0, 2.0, 1.0});
  EXPECT_THROW((void)cholesky(indefinite), NumericalError);
  EXPECT_THROW((void)cholesky(RealMatrix(2, 3)), InvalidArgument);
}

TEST(SolveSpd, RecoversKnownSolution) {
  const RealMatrix a(2, 2, {4.0, 2.0, 2.0, 3.0});
  const std::vector<double> x_true{1.0, -2.0};
  const std::vector<double> b = multiply(a, x_true);
  const auto x = solve_spd(a, b);
  EXPECT_LT(max_abs(x, x_true), 1e-12);
}

TEST(SolveSpd, DimensionMismatchThrows) {
  const RealMatrix a(2, 2, {1.0, 0.0, 0.0, 1.0});
  EXPECT_THROW((void)solve_spd(a, {1.0}), InvalidArgument);
}

TEST(SolveRegularized, LambdaZeroMatchesPlainSolve) {
  Rng rng(1);
  const RealMatrix a = random_spd(4, rng);
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  EXPECT_LT(max_abs(solve_regularized(a, b, 0.0), solve_spd(a, b)), 1e-10);
}

TEST(SolveRegularized, RescuesSingularMatrix) {
  // Rank-1 PSD matrix: unsolvable at lambda = 0, fine with lambda > 0.
  const RealMatrix a(2, 2, {1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW((void)solve_spd(a, {1.0, 1.0}), NumericalError);
  const auto x = solve_regularized(a, {1.0, 1.0}, 1e-3);
  // (A + λI) x = b verified directly.
  RealMatrix reg = a;
  reg(0, 0) += 1e-3;
  reg(1, 1) += 1e-3;
  EXPECT_LT(max_abs(multiply(reg, x), {1.0, 1.0}), 1e-10);
}

TEST(SolveRegularized, NegativeLambdaThrows) {
  const RealMatrix a(1, 1, {1.0});
  EXPECT_THROW((void)solve_regularized(a, {1.0}, -1.0), InvalidArgument);
}

// Property sweep: random SPD systems of growing size solve to high
// accuracy.
class SolverAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverAccuracy, RandomSpdSystems) {
  const std::size_t n = GetParam();
  Rng rng(splitmix64(n + 7));
  const RealMatrix a = random_spd(n, rng);
  std::vector<double> x_true(n);
  for (auto& v : x_true) {
    v = rng.normal();
  }
  const std::vector<double> b = multiply(a, x_true);
  EXPECT_LT(max_abs(solve_spd(a, b), x_true), 1e-8) << "cholesky n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverAccuracy,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50, 100));

}  // namespace
}  // namespace qbarren
