#include "qbarren/grad/engine.hpp"

#include <cstdlib>
#include <utility>

#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/guard.hpp"

namespace qbarren {

void GradientEngine::check_args(const Circuit& circuit,
                                const Observable& observable,
                                std::span<const double> params) {
  QBARREN_REQUIRE(circuit.num_qubits() == observable.num_qubits(),
                  "GradientEngine: circuit/observable width mismatch");
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "GradientEngine: parameter count mismatch");
}

double GradientEngine::partial(const Circuit& circuit,
                               const Observable& observable,
                               std::span<const double> params,
                               std::size_t index) const {
  check_args(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "GradientEngine::partial: index out of range");
  return gradient(circuit, observable, params)[index];
}

ValueAndGradient GradientEngine::value_and_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  // The gradient below reuses the plan attached here.
  const auto plan = exec::plan_for(circuit);
  ValueAndGradient out;
  out.value = observable.expectation(plan->simulate(params));
  out.gradient = gradient(circuit, observable, params);
  return out;
}

std::unique_ptr<GradientEngine> make_gradient_engine(const std::string& name) {
  // Decorator prefixes (see guard.hpp). "guarded:<inner>" wraps a
  // non-finite output guard; "nan-at:<k>:<inner>" poisons call k with a
  // NaN, "crash-at:<k>:<inner>" abort()s on call k, and
  // "hang-at:<k>:<inner>" sleeps past any watchdog on call k —
  // deterministic fault injection for the resilience and serve tests.
  if (name.starts_with("guarded:")) {
    return std::make_unique<NonFiniteGuardEngine>(
        make_gradient_engine(name.substr(std::string("guarded:").size())));
  }
  for (const auto& [prefix, kind] :
       {std::pair<const char*, FaultKind>{"nan-at:", FaultKind::kNan},
        {"crash-at:", FaultKind::kCrash},
        {"hang-at:", FaultKind::kHang}}) {
    if (!name.starts_with(prefix)) continue;
    const std::size_t k_begin = std::string(prefix).size();
    const std::size_t colon = name.find(':', k_begin);
    if (colon != std::string::npos && colon > k_begin) {
      char* end = nullptr;
      const std::string digits = name.substr(k_begin, colon - k_begin);
      const unsigned long long k = std::strtoull(digits.c_str(), &end, 10);
      if (end != digits.c_str() && *end == '\0') {
        return std::make_unique<FaultInjectedEngine>(
            make_gradient_engine(name.substr(colon + 1)),
            static_cast<std::size_t>(k), kind);
      }
    }
    throw NotFound("make_gradient_engine: malformed fault spec '" + name +
                   "' (want " + prefix + "<k>:<engine>)");
  }
  if (name == "parameter-shift") {
    return std::make_unique<ParameterShiftEngine>();
  }
  if (name == "finite-difference") {
    return std::make_unique<FiniteDifferenceEngine>();
  }
  if (name == "adjoint") {
    return std::make_unique<AdjointEngine>();
  }
  if (name == "spsa") {
    return std::make_unique<SpsaEngine>(0);
  }
  throw NotFound("make_gradient_engine: unknown engine '" + name + "'");
}

}  // namespace qbarren
