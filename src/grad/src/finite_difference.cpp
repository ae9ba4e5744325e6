#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

FiniteDifferenceEngine::FiniteDifferenceEngine(double h) : h_(h) {
  QBARREN_REQUIRE(h > 0.0, "FiniteDifferenceEngine: step must be positive");
}

double FiniteDifferenceEngine::partial(const Circuit& circuit,
                                       const Observable& observable,
                                       std::span<const double> params,
                                       std::size_t index) const {
  check_args(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "FiniteDifferenceEngine::partial: index out of range");
  // Both evaluations reuse the prefix state before the shifted gate.
  exec::PartialEvaluator cost(exec::plan_for(circuit), observable, params,
                              index);
  const double plus = cost(h_);
  const double minus = cost(-h_);
  return (plus - minus) / (2.0 * h_);
}

std::vector<double> FiniteDifferenceEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  // All 2P shifted bindings in one shared-prefix walk of the op stream
  // instead of a fresh prefix simulation per parameter.
  std::vector<exec::ShiftSpec> specs;
  specs.reserve(2 * params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    specs.push_back({i, h_});
    specs.push_back({i, -h_});
  }
  const std::vector<double> v = exec::shifted_expectations(
      *exec::plan_for(circuit), observable, params, specs);
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = (v[2 * i] - v[2 * i + 1]) / (2.0 * h_);
  }
  return grad;
}

}  // namespace qbarren
