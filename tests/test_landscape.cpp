// Tests for the cost-landscape scan (paper Fig 1).
#include "qbarren/bp/landscape.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qbarren {
namespace {

LandscapeOptions small_options() {
  LandscapeOptions options;
  options.qubits = 2;
  options.layers = 10;
  options.grid_points = 7;
  options.seed = 1;
  return options;
}

TEST(Landscape, ValidatesOptions) {
  LandscapeOptions bad = small_options();
  bad.grid_points = 1;
  EXPECT_THROW((void)scan_landscape(bad), InvalidArgument);

  bad = small_options();
  bad.lo = 1.0;
  bad.hi = 1.0;
  EXPECT_THROW((void)scan_landscape(bad), InvalidArgument);

  bad = small_options();
  bad.param_a = bad.param_b = 0;
  EXPECT_THROW((void)scan_landscape(bad), InvalidArgument);

  bad = small_options();
  bad.param_b = 100000;
  EXPECT_THROW((void)scan_landscape(bad), InvalidArgument);
}

TEST(Landscape, GridShapeAndAxis) {
  const LandscapeResult result = scan_landscape(small_options());
  EXPECT_EQ(result.axis.size(), 7u);
  EXPECT_EQ(result.values.size(), 49u);
  EXPECT_DOUBLE_EQ(result.axis.front(), 0.0);
  EXPECT_NEAR(result.axis.back(), 2.0 * M_PI, 1e-12);
}

TEST(Landscape, MetricsConsistentWithGrid) {
  const LandscapeResult result = scan_landscape(small_options());
  double mn = 1e9;
  double mx = -1e9;
  for (double v : result.values) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_DOUBLE_EQ(result.min_value, mn);
  EXPECT_DOUBLE_EQ(result.max_value, mx);
  EXPECT_DOUBLE_EQ(result.range, mx - mn);
  EXPECT_GE(result.stddev, 0.0);
}

TEST(Landscape, CostStaysInUnitInterval) {
  const LandscapeResult result = scan_landscape(small_options());
  for (double v : result.values) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Landscape, ValueAtIndexing) {
  const LandscapeResult result = scan_landscape(small_options());
  EXPECT_DOUBLE_EQ(result.value_at(2, 3), result.values[2 * 7 + 3]);
  EXPECT_THROW((void)result.value_at(7, 0), InvalidArgument);
  EXPECT_THROW((void)result.value_at(0, 7), InvalidArgument);
}

TEST(Landscape, DeterministicGivenSeed) {
  const LandscapeResult a = scan_landscape(small_options());
  const LandscapeResult b = scan_landscape(small_options());
  EXPECT_EQ(a.values, b.values);
}

TEST(Landscape, ZeroBackgroundDiffersFromRandom) {
  LandscapeOptions options = small_options();
  const LandscapeResult random_bg = scan_landscape(options);
  options.random_background = false;
  const LandscapeResult zero_bg = scan_landscape(options);
  EXPECT_NE(random_bg.values, zero_bg.values);
}

TEST(Landscape, ZeroBackgroundScanHasKnownStructure) {
  // With all other parameters zero and scanning the first RX/RY pair of
  // qubit 0, the cost at grid point (0, 0) (both scanned angles 0) is 0:
  // the whole circuit is the identity.
  LandscapeOptions options = small_options();
  options.random_background = false;
  const LandscapeResult result = scan_landscape(options);
  EXPECT_NEAR(result.value_at(0, 0), 0.0, 1e-10);
  // And the landscape is non-trivial elsewhere.
  EXPECT_GT(result.range, 0.1);
}

TEST(Landscape, FlattensWithMoreQubits) {
  // Fig 1's qualitative claim, checked quantitatively: the cost range over
  // the same grid shrinks monotonically from 2 to 6 qubits at fixed depth.
  LandscapeOptions options = small_options();
  options.layers = 30;
  options.grid_points = 9;

  std::vector<double> ranges;
  for (const std::size_t q : {2u, 4u, 6u}) {
    options.qubits = q;
    ranges.push_back(scan_landscape(options).range);
  }
  EXPECT_GT(ranges[0], ranges[1]);
  EXPECT_GT(ranges[1], ranges[2]);
}

TEST(Landscape, FlatnessTableCoversAllWidths) {
  LandscapeOptions options = small_options();
  options.grid_points = 5;
  const Table table = landscape_flatness_table({2, 3}, options);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 5u);
  EXPECT_THROW((void)landscape_flatness_table({}, options),
               InvalidArgument);
}

}  // namespace
}  // namespace qbarren
