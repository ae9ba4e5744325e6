#include "qbarren/grad/metric.hpp"

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

std::vector<StateVector> derivative_states(const Circuit& circuit,
                                           std::span<const double> params) {
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "derivative_states: parameter count mismatch");
  // Rotations are never fused, so each parameterized source op is exactly
  // one plan op.
  const auto plan = exec::plan_for(circuit);
  const std::size_t num_ops = plan->num_plan_ops();

  // Forward pass: remember the state entering every parameterized op.
  std::vector<StateVector> entering(params.size(),
                                    StateVector(circuit.num_qubits()));
  StateVector phi(circuit.num_qubits());
  for (std::size_t k = 0; k < num_ops; ++k) {
    if (plan->plan_op_is_parameterized(k)) {
      entering[plan->plan_op_parameter(k)] = phi;
    }
    plan->apply_plan_op(k, phi, params);
  }

  // For each parameter: apply the derivative of its op, then the rest of
  // the circuit.
  std::vector<StateVector> derivatives;
  derivatives.reserve(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::size_t k = plan->plan_op_for_parameter(p);
    QBARREN_REQUIRE(k != ExecutionPlan::kNoOperation,
                    "derivative_states: no unique op consumes a parameter");
    StateVector& d = derivatives.emplace_back(circuit.num_qubits());
    plan->apply_plan_op_derivative(k, entering[p], d, params);
    plan->apply_plan_ops(d, params, k + 1, num_ops);
  }
  return derivatives;
}

RealMatrix fubini_study_metric(const Circuit& circuit,
                               std::span<const double> params) {
  QBARREN_REQUIRE(circuit.num_parameters() >= 1,
                  "fubini_study_metric: circuit has no parameters");
  const StateVector psi = exec::simulate(circuit, params);
  const std::vector<StateVector> d = derivative_states(circuit, params);
  const std::size_t p = d.size();

  // Berry connections a_i = <psi | d_i psi>.
  std::vector<Complex> a(p);
  for (std::size_t i = 0; i < p; ++i) {
    a[i] = psi.inner_product(d[i]);
  }

  RealMatrix f(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      const Complex overlap = d[i].inner_product(d[j]);
      const double value = (overlap - std::conj(a[i]) * a[j]).real();
      f.at_unchecked(i, j) = value;
      f.at_unchecked(j, i) = value;
    }
  }
  return f;
}

}  // namespace qbarren
