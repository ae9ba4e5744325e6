#include "qbarren/bp/landscape.hpp"

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

double LandscapeResult::value_at(std::size_t i, std::size_t j) const {
  QBARREN_REQUIRE(i < options.grid_points && j < options.grid_points,
                  "LandscapeResult::value_at: index out of range");
  return values[i * options.grid_points + j];
}

LandscapeResult scan_landscape(const LandscapeOptions& options) {
  QBARREN_REQUIRE(options.grid_points >= 2,
                  "scan_landscape: need >= 2 grid points");
  QBARREN_REQUIRE(options.lo < options.hi, "scan_landscape: lo must be < hi");
  QBARREN_REQUIRE(options.param_a != options.param_b,
                  "scan_landscape: scanned parameters must differ");

  const Circuit circuit = motivational_ansatz(options.qubits, options.layers);
  QBARREN_REQUIRE(options.param_a < circuit.num_parameters() &&
                      options.param_b < circuit.num_parameters(),
                  "scan_landscape: scanned parameter index out of range");
  const auto observable = make_cost_observable(options.cost, options.qubits);
  // One lowering serves all grid_points^2 simulations of the scan.
  const auto plan = exec::plan_for(circuit);

  Rng rng(options.seed);
  std::vector<double> params =
      options.random_background
          ? rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI)
          : std::vector<double>(circuit.num_parameters(), 0.0);

  LandscapeResult result;
  result.options = options;
  const std::size_t n = options.grid_points;
  result.axis.resize(n);
  const double step = (options.hi - options.lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    result.axis[i] = options.lo + step * static_cast<double>(i);
  }

  result.values.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    params[options.param_a] = result.axis[i];
    for (std::size_t j = 0; j < n; ++j) {
      params[options.param_b] = result.axis[j];
      result.values[i * n + j] =
          observable->expectation(plan->simulate(params));
    }
  }

  const Summary summary = summarize(result.values);
  result.min_value = summary.min;
  result.max_value = summary.max;
  result.range = summary.max - summary.min;
  result.stddev = summary.stddev;
  result.mean = summary.mean;
  return result;
}

Table LandscapeResult::metrics_table() const {
  Table table({"qubits", "layers", "grid", "min", "max", "range", "stddev"});
  table.begin_row();
  table.push(options.qubits);
  table.push(options.layers);
  table.push(options.grid_points);
  table.push(min_value, 6);
  table.push(max_value, 6);
  table.push(range, 6);
  table.push(stddev, 6);
  return table;
}

Table LandscapeResult::grid_table() const {
  std::vector<std::string> headers{"theta_a \\ theta_b"};
  for (double v : axis) {
    headers.push_back(format_fixed(v, 3));
  }
  Table table(std::move(headers));
  const std::size_t n = options.grid_points;
  for (std::size_t i = 0; i < n; ++i) {
    table.begin_row();
    table.push(format_fixed(axis[i], 3));
    for (std::size_t j = 0; j < n; ++j) {
      table.push(values[i * n + j], 4);
    }
  }
  return table;
}

Table landscape_flatness_table(const std::vector<std::size_t>& qubit_counts,
                               const LandscapeOptions& base_options) {
  QBARREN_REQUIRE(!qubit_counts.empty(),
                  "landscape_flatness_table: no qubit counts");
  Table table({"qubits", "min", "max", "range", "stddev"});
  for (std::size_t q : qubit_counts) {
    LandscapeOptions options = base_options;
    options.qubits = q;
    const LandscapeResult r = scan_landscape(options);
    table.begin_row();
    table.push(q);
    table.push(r.min_value, 6);
    table.push(r.max_value, 6);
    table.push(r.range, 6);
    table.push(r.stddev, 6);
  }
  return table;
}

}  // namespace qbarren
