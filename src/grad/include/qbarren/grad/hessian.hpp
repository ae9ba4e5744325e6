// Exact second derivatives via the parameter-shift rule.
//
// For Pauli-rotation parameters the cost is a sinusoid in each angle, so
// second derivatives also have an exact shift formula:
//   d2C/dtheta_i^2 = [C(t + pi e_i) - 2 C(t) + C(t - pi e_i)] / 4.
// Barren plateaus flatten the whole Taylor expansion — the Hessian's
// entries vanish exponentially with width alongside the gradient (Cerezo &
// Coles 2021), which bench_ablation_curvature demonstrates and which rules
// out second-order optimizers as a plateau escape.
#pragma once

#include <span>
#include <vector>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren {

/// d2C/dtheta_index^2 at `params`.
[[nodiscard]] double second_partial(const Circuit& circuit,
                                    const Observable& observable,
                                    std::span<const double> params,
                                    std::size_t index);

/// Diagonal only: 2P + 1 circuit evaluations, element i equal to
/// second_partial(..., i) bit for bit.
[[nodiscard]] std::vector<double> hessian_diagonal(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params);

}  // namespace qbarren
