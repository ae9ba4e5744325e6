#include <cmath>

#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

namespace {

// Rotations R(theta) = exp(-i theta P/2) take the two-term shift rule,
// C(+pi/2) - C(-pi/2) over 2, which is exact for them (Schuld et al. 2019).
// Four-term shift-rule constants for controlled rotations (generator
// eigenvalues {0, +-1/2}; Anselmetti et al. 2021):
//   dC = a [C(+pi/2) - C(-pi/2)] + b [C(+3pi/2) - C(-3pi/2)],
//   a = (sqrt(2)+1)/(4 sqrt(2)),  b = -(sqrt(2)-1)/(4 sqrt(2)).
struct FourTermRule {
  double a;
  double b;
};

FourTermRule four_term_rule() {
  const double sqrt2 = std::sqrt(2.0);
  return {(sqrt2 + 1.0) / (4.0 * sqrt2), -(sqrt2 - 1.0) / (4.0 * sqrt2)};
}

}  // namespace

double ParameterShiftEngine::partial(const Circuit& circuit,
                                     const Observable& observable,
                                     std::span<const double> params,
                                     std::size_t index) const {
  check_args(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "ParameterShiftEngine::partial: index out of range");
  constexpr double kShift = M_PI / 2.0;

  // Attach the compiled plan first so operation_for_parameter below hits
  // the binding table rather than the linear scan.
  const auto plan = exec::plan_for(circuit);
  // Prefix-state reuse: every evaluation shares the state before the
  // shifted gate and re-runs only that gate and its suffix. The Fig 5a hot
  // path differentiates the LAST parameter, whose prefix is nearly the
  // whole circuit.
  exec::PartialEvaluator cost(plan, observable, params, index);

  if (circuit.operation_for_parameter(index).kind ==
      OpKind::kControlledRotation) {
    const auto [a, b] = four_term_rule();
    const double d1 = cost(kShift) - cost(-kShift);
    const double d3 = cost(3.0 * kShift) - cost(-3.0 * kShift);
    return a * d1 + b * d3;
  }
  const double plus = cost(kShift);
  const double minus = cost(-kShift);
  return 0.5 * (plus - minus);
}

std::vector<double> ParameterShiftEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  constexpr double kShift = M_PI / 2.0;
  const auto plan = exec::plan_for(circuit);
  // Every parameter's shifted bindings (2 per rotation, 4 per controlled
  // rotation) in one shared-prefix walk of the op stream instead of a
  // fresh prefix simulation per parameter.
  std::vector<exec::ShiftSpec> specs;
  specs.reserve(2 * params.size());
  std::vector<std::size_t> first_spec(params.size());
  std::vector<bool> four_term(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    first_spec[i] = specs.size();
    four_term[i] = circuit.operation_for_parameter(i).kind ==
                   OpKind::kControlledRotation;
    specs.push_back({i, kShift});
    specs.push_back({i, -kShift});
    if (four_term[i]) {
      specs.push_back({i, 3.0 * kShift});
      specs.push_back({i, -3.0 * kShift});
    }
  }
  const std::vector<double> v =
      exec::shifted_expectations(*plan, observable, params, specs);
  const auto [a, b] = four_term_rule();
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t s = first_spec[i];
    if (four_term[i]) {
      const double d1 = v[s] - v[s + 1];
      const double d3 = v[s + 2] - v[s + 3];
      grad[i] = a * d1 + b * d3;
    } else {
      grad[i] = 0.5 * (v[s] - v[s + 1]);
    }
  }
  return grad;
}

}  // namespace qbarren
