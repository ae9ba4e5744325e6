// Linear solvers for small dense systems.
//
// Quantum natural gradient needs x = (F + lambda I)^{-1} g with F the
// (symmetric positive-semidefinite) Fubini-Study metric; a Cholesky
// factorization of the regularized matrix is the right tool. A plain
// LU-with-partial-pivoting solver is provided for general square systems.
#pragma once

#include <vector>

#include "qbarren/linalg/matrix.hpp"

namespace qbarren {

/// Cholesky factorization A = L Lᵀ of a symmetric positive-definite
/// matrix; returns the lower factor. Throws NumericalError when A is not
/// (numerically) positive definite.
[[nodiscard]] RealMatrix cholesky(const RealMatrix& a);

/// Solves A x = b for symmetric positive-definite A via Cholesky.
[[nodiscard]] std::vector<double> solve_spd(const RealMatrix& a,
                                            const std::vector<double>& b);

/// Solves (A + lambda I) x = b — the Tikhonov-regularized SPD solve used
/// by natural gradient. Requires lambda >= 0; A square and symmetric.
[[nodiscard]] std::vector<double> solve_regularized(
    const RealMatrix& a, const std::vector<double>& b, double lambda);

}  // namespace qbarren
