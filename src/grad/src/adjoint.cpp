#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

// Reverse-mode ("adjoint") differentiation for state-vector simulation.
//
// With |phi_k> = U_k ... U_1 |0> and C = <phi_N| H |phi_N>, the derivative
// with respect to the parameter of gate k is
//   dC/dtheta_k = 2 Re <lambda_k | dU_k/dtheta_k | phi_{k-1}>,
// where |lambda_k> = U_{k+1}^dag ... U_N^dag H |phi_N>. Sweeping k from N
// down to 1 while un-applying each gate from |phi> and |lambda> yields the
// full gradient with O(N) gate applications and three live state vectors
// (phi, lambda, and a scratch vector for dU_k |phi>).
//
// Requirement: H must be applied exactly once (it is generally not unitary,
// so it cannot be "un-applied"); this is why lambda is seeded with H|phi_N>
// before the sweep.
ValueAndGradient AdjointEngine::value_and_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);

  ValueAndGradient out;
  out.gradient.assign(params.size(), 0.0);
  // Whole pass through the lowered op stream: rotation entries computed
  // once per op, allocation-free kernels, out-of-place derivative.
  out.value = exec::plan_for(circuit)->adjoint_value_and_gradient(
      observable, params, out.gradient);
  return out;
}

std::vector<double> AdjointEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  return value_and_gradient(circuit, observable, params).gradient;
}

}  // namespace qbarren
