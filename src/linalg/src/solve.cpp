#include "qbarren/linalg/solve.hpp"

#include <cmath>

namespace qbarren {

RealMatrix cholesky(const RealMatrix& a) {
  QBARREN_REQUIRE(a.is_square(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  RealMatrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a.at_unchecked(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        sum -= l.at_unchecked(i, k) * l.at_unchecked(j, k);
      }
      if (i == j) {
        if (sum <= 0.0) {
          throw NumericalError("cholesky: matrix is not positive definite");
        }
        l.at_unchecked(i, j) = std::sqrt(sum);
      } else {
        l.at_unchecked(i, j) = sum / l.at_unchecked(j, j);
      }
    }
  }
  return l;
}

std::vector<double> solve_spd(const RealMatrix& a,
                              const std::vector<double>& b) {
  QBARREN_REQUIRE(a.rows() == b.size(), "solve_spd: dimension mismatch");
  const RealMatrix l = cholesky(a);
  const std::size_t n = b.size();

  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= l.at_unchecked(i, k) * y[k];
    }
    y[i] = sum / l.at_unchecked(i, i);
  }

  // Back substitution Lᵀ x = y.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      sum -= l.at_unchecked(k, i) * x[k];
    }
    x[i] = sum / l.at_unchecked(i, i);
  }
  return x;
}

std::vector<double> solve_regularized(const RealMatrix& a,
                                      const std::vector<double>& b,
                                      double lambda) {
  QBARREN_REQUIRE(lambda >= 0.0,
                  "solve_regularized: lambda must be non-negative");
  QBARREN_REQUIRE(a.is_square(), "solve_regularized: matrix must be square");
  RealMatrix reg = a;
  for (std::size_t i = 0; i < reg.rows(); ++i) {
    reg.at_unchecked(i, i) += lambda;
  }
  return solve_spd(reg, b);
}

}  // namespace qbarren
