// The op-by-op reference interpreter: the exact oracle for compiled plans.
//
// The library executes circuits only through exec::CompiledCircuit. This
// header keeps the walk plans are lowered from — every source op applied
// on its own through StateVector's plain amplitude loops with the heap
// ComplexMatrix of its gate — so tests can hold each plan consumer to it
// with exact (==) comparisons: the per-op forward, inverse and derivative,
// whole-program simulation, the adjoint sweep, whole-program shifted
// simulation (and the shift-rule and finite-difference gradients built on
// it), and the noisy density-matrix walk.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/dsim/noisy.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren::reference {

/// Applies a 2x2 matrix to `target` where `control` is |1>, scanning every
/// index (the compiled kernels enumerate the same pairs as runs).
inline void apply_controlled(StateVector& state, const ComplexMatrix& u,
                             std::size_t control, std::size_t target) {
  QBARREN_REQUIRE(control < state.num_qubits() && target < state.num_qubits(),
                  "apply_controlled: qubit index out of range");
  QBARREN_REQUIRE(control != target,
                  "apply_controlled: control and target must differ");
  QBARREN_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "apply_controlled: matrix must be 2x2");
  const Complex u00 = u.at_unchecked(0, 0);
  const Complex u01 = u.at_unchecked(0, 1);
  const Complex u10 = u.at_unchecked(1, 0);
  const Complex u11 = u.at_unchecked(1, 1);
  std::vector<Complex>& amps = state.amplitudes();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t i0 = 0; i0 < amps.size(); ++i0) {
    if ((i0 & cbit) == 0 || (i0 & tbit) != 0) continue;
    const std::size_t i1 = i0 | tbit;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = u00 * a0 + u01 * a1;
    amps[i1] = u10 * a0 + u11 * a1;
  }
}

/// Controlled-Z between two qubits (order irrelevant): negates every
/// amplitude whose both qubit bits are 1, scanning every index.
inline void apply_cz(StateVector& state, std::size_t a, std::size_t b) {
  QBARREN_REQUIRE(a < state.num_qubits() && b < state.num_qubits(),
                  "apply_cz: qubit index out of range");
  QBARREN_REQUIRE(a != b, "apply_cz: qubits must differ");
  const std::size_t mask = (std::size_t{1} << a) | (std::size_t{1} << b);
  std::vector<Complex>& amps = state.amplitudes();
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & mask) == mask) amps[i] = -amps[i];
  }
}

/// Applies the source op at `op_index`.
inline void apply_operation(const Circuit& circuit, std::size_t op_index,
                            StateVector& state,
                            std::span<const double> params) {
  QBARREN_REQUIRE(op_index < circuit.num_operations(),
                  "reference::apply_operation: index out of range");
  const Operation& op = circuit.operations()[op_index];
  switch (op.kind) {
    case OpKind::kRotation:
      state.apply_single_qubit(
          gates::rotation(op.axis, params[op.param_index]), op.qubit0);
      return;
    case OpKind::kFixedRotation:
      state.apply_single_qubit(gates::rotation(op.axis, op.fixed_angle),
                               op.qubit0);
      return;
    case OpKind::kControlledRotation:
      apply_controlled(state, gates::rotation(op.axis, params[op.param_index]),
                       op.qubit0, op.qubit1);
      return;
    case OpKind::kHadamard:
      state.apply_single_qubit(gates::hadamard(), op.qubit0);
      return;
    case OpKind::kPauliX:
      state.apply_single_qubit(gates::pauli_x(), op.qubit0);
      return;
    case OpKind::kPauliY:
      state.apply_single_qubit(gates::pauli_y(), op.qubit0);
      return;
    case OpKind::kPauliZ:
      state.apply_single_qubit(gates::pauli_z(), op.qubit0);
      return;
    case OpKind::kSGate:
      state.apply_single_qubit(gates::s_gate(), op.qubit0);
      return;
    case OpKind::kTGate:
      state.apply_single_qubit(gates::t_gate(), op.qubit0);
      return;
    case OpKind::kCz:
      apply_cz(state, op.qubit0, op.qubit1);
      return;
    case OpKind::kCnot:
      apply_controlled(state, gates::pauli_x(), op.qubit0, op.qubit1);
      return;
    case OpKind::kSwap:
      state.apply_two_qubit(gates::swap(), std::min(op.qubit0, op.qubit1),
                            std::max(op.qubit0, op.qubit1));
      return;
    case OpKind::kCustomSingle:
      // The StateVector loops throw InvalidArgument on a malformed matrix.
      state.apply_single_qubit(circuit.custom_gate(op).matrix, op.qubit0);
      return;
    case OpKind::kCustomTwo:
      // Builders enforce qubit0 < qubit1 with matrix bit 0 = qubit0.
      state.apply_two_qubit(circuit.custom_gate(op).matrix, op.qubit0,
                            op.qubit1);
      return;
  }
  throw InvalidArgument("reference::apply_operation: unknown op kind");
}

/// Applies the inverse (adjoint) of the source op at `op_index`.
inline void apply_operation_inverse(const Circuit& circuit,
                                    std::size_t op_index, StateVector& state,
                                    std::span<const double> params) {
  QBARREN_REQUIRE(op_index < circuit.num_operations(),
                  "reference::apply_operation_inverse: index out of range");
  const Operation& op = circuit.operations()[op_index];
  switch (op.kind) {
    case OpKind::kRotation:
      state.apply_single_qubit(
          gates::rotation(op.axis, -params[op.param_index]), op.qubit0);
      return;
    case OpKind::kFixedRotation:
      state.apply_single_qubit(gates::rotation(op.axis, -op.fixed_angle),
                               op.qubit0);
      return;
    case OpKind::kControlledRotation:
      apply_controlled(state,
                       gates::rotation(op.axis, -params[op.param_index]),
                       op.qubit0, op.qubit1);
      return;
    case OpKind::kSGate:
      state.apply_single_qubit(adjoint(gates::s_gate()), op.qubit0);
      return;
    case OpKind::kTGate:
      state.apply_single_qubit(adjoint(gates::t_gate()), op.qubit0);
      return;
    case OpKind::kCustomSingle:
      // Inverse = adjoint, valid only for unitary custom matrices (QB006).
      state.apply_single_qubit(adjoint(circuit.custom_gate(op).matrix),
                               op.qubit0);
      return;
    case OpKind::kCustomTwo:
      state.apply_two_qubit(adjoint(circuit.custom_gate(op).matrix),
                            op.qubit0, op.qubit1);
      return;
    default:
      // Hadamard, Paulis, CZ, CNOT, SWAP are involutions.
      apply_operation(circuit, op_index, state, params);
      return;
  }
}

/// state <- dU/dtheta |state> for the parameterized source op at
/// `op_index` (non-unitary).
inline void apply_operation_derivative(const Circuit& circuit,
                                       std::size_t op_index,
                                       StateVector& state,
                                       std::span<const double> params) {
  QBARREN_REQUIRE(op_index < circuit.num_operations(),
                  "reference::apply_operation_derivative: index out of "
                  "range");
  const Operation& op = circuit.operations()[op_index];
  QBARREN_REQUIRE(is_parameterized(op.kind),
                  "reference::apply_operation_derivative: op is not a "
                  "trainable rotation");
  const ComplexMatrix dr =
      gates::rotation_derivative(op.axis, params[op.param_index]);
  if (op.kind == OpKind::kRotation) {
    state.apply_single_qubit(dr, op.qubit0);
    return;
  }
  // Controlled rotation: |1><1| (x) dR/dtheta, zero on the control-clear
  // subspace (matrix bit 0 = control).
  ComplexMatrix full(4, 4);
  full(1, 1) = dr.at_unchecked(0, 0);
  full(1, 3) = dr.at_unchecked(0, 1);
  full(3, 1) = dr.at_unchecked(1, 0);
  full(3, 3) = dr.at_unchecked(1, 1);
  state.apply_two_qubit(full, op.qubit0, op.qubit1);
}

/// Applies every source op in order.
inline void apply(const Circuit& circuit, StateVector& state,
                  std::span<const double> params) {
  QBARREN_REQUIRE(state.num_qubits() == circuit.num_qubits(),
                  "reference::apply: register width mismatch");
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "reference::apply: parameter count mismatch");
  for (std::size_t k = 0; k < circuit.num_operations(); ++k) {
    apply_operation(circuit, k, state, params);
  }
}

/// Runs from |0...0>.
inline StateVector simulate(const Circuit& circuit,
                            std::span<const double> params) {
  StateVector state(circuit.num_qubits());
  apply(circuit, state, params);
  return state;
}

/// The cost at `params` with params[index] += delta, simulated from
/// scratch.
inline double shifted_expectation(const Circuit& circuit,
                                  const Observable& observable,
                                  std::span<const double> params,
                                  std::size_t index, double delta) {
  std::vector<double> shifted(params.begin(), params.end());
  shifted[index] += delta;
  return observable.expectation(simulate(circuit, shifted));
}

/// Adjoint differentiation over the source ops: the forward state, then
/// one inverse, derivative and inverse per op from the back.
inline ValueAndGradient adjoint_value_and_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) {
  ValueAndGradient out;
  out.gradient.assign(params.size(), 0.0);
  StateVector phi = simulate(circuit, params);
  StateVector lambda = observable.apply(phi);
  out.value = phi.inner_product(lambda).real();
  StateVector scratch(circuit.num_qubits());
  const auto& ops = circuit.operations();
  for (std::size_t k = ops.size(); k-- > 0;) {
    apply_operation_inverse(circuit, k, phi, params);  // |phi_{k-1}>
    if (is_parameterized(ops[k].kind)) {
      scratch = phi;
      apply_operation_derivative(circuit, k, scratch, params);
      out.gradient[ops[k].param_index] +=
          2.0 * lambda.inner_product(scratch).real();
    }
    apply_operation_inverse(circuit, k, lambda, params);
  }
  return out;
}

/// Two-term shift rule, or the four-term rule for controlled rotations,
/// each shifted cost simulated from scratch.
inline double parameter_shift_partial(const Circuit& circuit,
                                      const Observable& observable,
                                      std::span<const double> params,
                                      std::size_t index) {
  constexpr double kShift = M_PI / 2.0;
  const auto cost = [&](double delta) {
    return shifted_expectation(circuit, observable, params, index, delta);
  };
  if (circuit.operation_for_parameter(index).kind ==
      OpKind::kControlledRotation) {
    const double sqrt2 = std::sqrt(2.0);
    const double a = (sqrt2 + 1.0) / (4.0 * sqrt2);
    const double b = -(sqrt2 - 1.0) / (4.0 * sqrt2);
    const double d1 = cost(kShift) - cost(-kShift);
    const double d3 = cost(3.0 * kShift) - cost(-3.0 * kShift);
    return a * d1 + b * d3;
  }
  const double plus = cost(kShift);
  const double minus = cost(-kShift);
  return 0.5 * (plus - minus);
}

inline std::vector<double> parameter_shift_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) {
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = parameter_shift_partial(circuit, observable, params, i);
  }
  return grad;
}

/// Central difference with step `h`, each side simulated from scratch.
inline double finite_difference_partial(const Circuit& circuit,
                                        const Observable& observable,
                                        std::span<const double> params,
                                        std::size_t index, double h = 1e-6) {
  const double plus = shifted_expectation(circuit, observable, params, index, h);
  const double minus =
      shifted_expectation(circuit, observable, params, index, -h);
  return (plus - minus) / (2.0 * h);
}

inline std::vector<double> finite_difference_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params, double h = 1e-6) {
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = finite_difference_partial(circuit, observable, params, i, h);
  }
  return grad;
}

/// tr(H rho) after the noisy density-matrix walk, every gate matrix
/// rebuilt by Circuit::operation_matrix.
inline double noisy_expectation(const Circuit& circuit,
                                std::span<const double> params,
                                const Observable& observable,
                                const NoiseModel& noise) {
  DensityMatrix rho(circuit.num_qubits());
  const auto& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (is_two_qubit(op.kind)) {
      if (op.kind == OpKind::kCz) {
        rho.apply_cz(op.qubit0, op.qubit1);
      } else {
        rho.apply_unitary_2q(circuit.operation_matrix(i, params), op.qubit0,
                             op.qubit1);
      }
      if (noise.two_qubit.has_value()) {
        rho.apply_channel_2q(*noise.two_qubit, op.qubit0, op.qubit1);
      } else if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
        rho.apply_channel_1q(*noise.single_qubit, op.qubit1);
      }
    } else {
      rho.apply_unitary_1q(circuit.operation_matrix(i, params), op.qubit0);
      if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
      }
    }
  }
  return rho.expectation(observable);
}

}  // namespace qbarren::reference
