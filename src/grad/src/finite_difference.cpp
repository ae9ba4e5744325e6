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
  if (const auto plan = exec::plan_for(circuit)) {
    // Both evaluations reuse the prefix state before the shifted gate.
    exec::PartialEvaluator cost(plan, observable, params, index);
    const double plus = cost(h_);
    const double minus = cost(-h_);
    return (plus - minus) / (2.0 * h_);
  }
  std::vector<double> work(params.begin(), params.end());
  work[index] = params[index] + h_;
  const double plus = observable.expectation(circuit.simulate(work));
  work[index] = params[index] - h_;
  const double minus = observable.expectation(circuit.simulate(work));
  return (plus - minus) / (2.0 * h_);
}

std::vector<double> FiniteDifferenceEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  std::vector<double> grad(params.size());
  const auto plan = exec::plan_for(circuit);
  if (plan != nullptr) {
    // All 2P shifted bindings in one shared-prefix walk of the op stream
    // instead of a fresh prefix simulation per parameter.
    std::vector<exec::ShiftSpec> specs;
    specs.reserve(2 * params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      specs.push_back({i, h_});
      specs.push_back({i, -h_});
    }
    const std::vector<double> v =
        exec::shifted_expectations(*plan, observable, params, specs);
    for (std::size_t i = 0; i < params.size(); ++i) {
      grad[i] = (v[2 * i] - v[2 * i + 1]) / (2.0 * h_);
    }
    return grad;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = partial(circuit, observable, params, i);
  }
  return grad;
}

}  // namespace qbarren
