// Cost-landscape scans (paper Fig 1).
//
// Scans the cost over a 2-D grid of two chosen parameters of a deep HEA
// while holding the remaining parameters fixed at a random draw. The
// paper's motivational figure shows the surface flattening as the qubit
// count grows; the scan reports flatness metrics (range and standard
// deviation of the grid) that quantify the same effect numerically.
#pragma once

#include <cstdint>
#include <vector>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/common/table.hpp"

namespace qbarren {

struct LandscapeOptions {
  std::size_t qubits = 2;
  std::size_t layers = 100;       ///< Fig 1's constant depth
  std::size_t grid_points = 25;   ///< grid_points x grid_points samples
  std::size_t param_a = 0;        ///< first scanned parameter index
  std::size_t param_b = 1;        ///< second scanned parameter index
  double lo = 0.0;                ///< scan range [lo, hi] on both axes
  double hi = 2.0 * M_PI;
  CostKind cost = CostKind::kGlobalZero;
  std::uint64_t seed = 1;         ///< seeds the background parameter draw
  /// Background parameters: true = U[0, 2pi) random draw (Fig 1's setting),
  /// false = all zeros.
  bool random_background = true;
};

struct LandscapeResult {
  LandscapeOptions options;
  std::vector<double> axis;    ///< the grid_points scan values (both axes)
  std::vector<double> values;  ///< row-major grid: values[i*N + j] =
                               ///< C(axis[i] -> param_a, axis[j] -> param_b)

  // Flatness metrics over the grid.
  double min_value = 0.0;
  double max_value = 0.0;
  double range = 0.0;    ///< max - min; shrinks as BP flattens the surface
  double stddev = 0.0;   ///< grid standard deviation
  double mean = 0.0;

  [[nodiscard]] double value_at(std::size_t i, std::size_t j) const;
};

/// Runs the scan. Requires grid_points >= 2, param indices distinct and
/// within the ansatz's parameter count, lo < hi.
[[nodiscard]] LandscapeResult scan_landscape(const LandscapeOptions& options);

/// Convenience for Fig 1: runs scans for several widths and tabulates the
/// flatness metrics side by side.
[[nodiscard]] Table landscape_flatness_table(
    const std::vector<std::size_t>& qubit_counts,
    const LandscapeOptions& base_options);

}  // namespace qbarren
