// The op-by-op reference interpreter: the exact oracle for compiled plans.
//
// The library executes circuits only through exec::CompiledCircuit. This
// header keeps the walk plans are lowered from — every source op applied
// on its own through StateVector's plain amplitude loops with the heap
// ComplexMatrix of its gate — so tests can hold each plan consumer to it
// with exact (==) comparisons: the per-op forward, inverse and derivative,
// whole-program simulation, the adjoint sweep, whole-program shifted
// simulation (and the shift-rule and finite-difference gradients built on
// it), and the noisy density-matrix walk, on the oracle's own row-major rho.
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

// --- the noisy density-matrix walk -------------------------------------------
//
// The oracle keeps its own rho, dim x dim row-major in a plain vector, and
// the row and column loops that conjugate it; the library's DensityMatrix
// runs the same products on the exec kernels instead.

/// Noisy-walk state: rho[r * dim + c].
struct NoisyRho {
  std::size_t dim;
  std::vector<Complex> rho;
};

/// v <- M v over the row index (for each fixed column), M 2x2 on `target`.
inline void transform_rows_1q(NoisyRho& s, const ComplexMatrix& m,
                              std::size_t target) {
  const Complex m00 = m.at_unchecked(0, 0);
  const Complex m01 = m.at_unchecked(0, 1);
  const Complex m10 = m.at_unchecked(1, 0);
  const Complex m11 = m.at_unchecked(1, 1);
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t low_mask = bit - 1;
  for (std::size_t i = 0; i < s.dim / 2; ++i) {
    const std::size_t r0 = ((i & ~low_mask) << 1) | (i & low_mask);
    Complex* row0 = s.rho.data() + r0 * s.dim;
    Complex* row1 = s.rho.data() + (r0 | bit) * s.dim;
    for (std::size_t c = 0; c < s.dim; ++c) {
      const Complex a = row0[c];
      const Complex b = row1[c];
      row0[c] = m00 * a + m01 * b;
      row1[c] = m10 * a + m11 * b;
    }
  }
}

/// v <- M v over the column index (for each fixed row).
inline void transform_cols_1q(NoisyRho& s, const ComplexMatrix& m,
                              std::size_t target) {
  const Complex m00 = m.at_unchecked(0, 0);
  const Complex m01 = m.at_unchecked(0, 1);
  const Complex m10 = m.at_unchecked(1, 0);
  const Complex m11 = m.at_unchecked(1, 1);
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t low_mask = bit - 1;
  for (std::size_t r = 0; r < s.dim; ++r) {
    Complex* row = s.rho.data() + r * s.dim;
    for (std::size_t i = 0; i < s.dim / 2; ++i) {
      const std::size_t c0 = ((i & ~low_mask) << 1) | (i & low_mask);
      const Complex a = row[c0];
      const Complex b = row[c0 | bit];
      row[c0] = m00 * a + m01 * b;
      row[c0 | bit] = m10 * a + m11 * b;
    }
  }
}

/// v <- M v over the row index, M 4x4 on (q_low, q_high).
inline void transform_rows_2q(NoisyRho& s, const ComplexMatrix& m,
                              std::size_t q_low, std::size_t q_high) {
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  for (std::size_t base = 0; base < s.dim; ++base) {
    if ((base & bl) != 0 || (base & bh) != 0) continue;
    const std::size_t rows[4] = {base, base | bl, base | bh, base | bl | bh};
    for (std::size_t c = 0; c < s.dim; ++c) {
      Complex in[4];
      for (std::size_t x = 0; x < 4; ++x) in[x] = s.rho[rows[x] * s.dim + c];
      for (std::size_t x = 0; x < 4; ++x) {
        Complex acc{0.0, 0.0};
        for (std::size_t y = 0; y < 4; ++y) acc += m.at_unchecked(x, y) * in[y];
        s.rho[rows[x] * s.dim + c] = acc;
      }
    }
  }
}

/// v <- M v over the column index, M 4x4 on (q_low, q_high).
inline void transform_cols_2q(NoisyRho& s, const ComplexMatrix& m,
                              std::size_t q_low, std::size_t q_high) {
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  for (std::size_t r = 0; r < s.dim; ++r) {
    Complex* row = s.rho.data() + r * s.dim;
    for (std::size_t base = 0; base < s.dim; ++base) {
      if ((base & bl) != 0 || (base & bh) != 0) continue;
      const std::size_t cols[4] = {base, base | bl, base | bh, base | bl | bh};
      Complex in[4];
      for (std::size_t x = 0; x < 4; ++x) in[x] = row[cols[x]];
      for (std::size_t x = 0; x < 4; ++x) {
        Complex acc{0.0, 0.0};
        for (std::size_t y = 0; y < 4; ++y) acc += m.at_unchecked(x, y) * in[y];
        row[cols[x]] = acc;
      }
    }
  }
}

/// rho <- M rho M^dag: M over the rows, conj(M) over the columns. `qubits`
/// holds one qubit for a 2x2 M, (q_low, q_high) for a 4x4.
inline void conjugate(NoisyRho& s, const ComplexMatrix& m,
                      std::span<const std::size_t> qubits) {
  ComplexMatrix conj_m = m;
  for (Complex& v : conj_m.data()) v = std::conj(v);
  if (qubits.size() == 1) {
    transform_rows_1q(s, m, qubits[0]);
    transform_cols_1q(s, conj_m, qubits[0]);
  } else {
    transform_rows_2q(s, m, qubits[0], qubits[1]);
    transform_cols_2q(s, conj_m, qubits[0], qubits[1]);
  }
}

/// rho <- sum_k K rho K^dag, each term conjugated from a copy of rho.
inline void apply_channel(NoisyRho& s, const KrausChannel& channel,
                          std::span<const std::size_t> qubits) {
  std::vector<Complex> acc(s.rho.size(), Complex{0.0, 0.0});
  const std::vector<Complex> original = s.rho;
  for (const ComplexMatrix& k : channel.operators()) {
    s.rho = original;
    conjugate(s, k, qubits);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += s.rho[i];
  }
  s.rho = std::move(acc);
}

/// tr(H rho) after the noisy density-matrix walk, every gate matrix
/// rebuilt by Circuit::operation_matrix.
inline double noisy_expectation(const Circuit& circuit,
                                std::span<const double> params,
                                const Observable& observable,
                                const NoiseModel& noise) {
  const std::size_t n = circuit.num_qubits();
  NoisyRho s{std::size_t{1} << n, {}};
  s.rho.assign(s.dim * s.dim, Complex{0.0, 0.0});
  s.rho[0] = Complex{1.0, 0.0};
  const auto& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (is_two_qubit(op.kind)) {
      const std::size_t pair[2] = {op.qubit0, op.qubit1};
      if (op.kind == OpKind::kCz) {
        // CZ rho CZ: element (r, c) flips sign when exactly one of r, c
        // has both qubit bits set.
        const std::size_t mask = (std::size_t{1} << op.qubit0) |
                                 (std::size_t{1} << op.qubit1);
        for (std::size_t r = 0; r < s.dim; ++r) {
          for (std::size_t c = 0; c < s.dim; ++c) {
            if (((r & mask) == mask) != ((c & mask) == mask)) {
              s.rho[r * s.dim + c] = -s.rho[r * s.dim + c];
            }
          }
        }
      } else {
        conjugate(s, circuit.operation_matrix(i, params), pair);
      }
      if (noise.two_qubit.has_value()) {
        apply_channel(s, *noise.two_qubit, pair);
      } else if (noise.single_qubit.has_value()) {
        apply_channel(s, *noise.single_qubit, {pair, 1});
        apply_channel(s, *noise.single_qubit, {pair + 1, 1});
      }
    } else {
      const std::size_t target[1] = {op.qubit0};
      conjugate(s, circuit.operation_matrix(i, params), target);
      if (noise.single_qubit.has_value()) {
        apply_channel(s, *noise.single_qubit, target);
      }
    }
  }
  // tr(H rho) = sum_j (H rho e_j)_j.
  double acc = 0.0;
  std::vector<Complex> column(s.dim);
  for (std::size_t j = 0; j < s.dim; ++j) {
    for (std::size_t r = 0; r < s.dim; ++r) column[r] = s.rho[r * s.dim + j];
    acc += observable.apply(StateVector(n, column)).amplitude(j).real();
  }
  return acc;
}

}  // namespace qbarren::reference
