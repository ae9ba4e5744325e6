#include "qbarren/circuit/circuit.hpp"

#include <cmath>

namespace qbarren {

bool is_two_qubit(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kCz:
    case OpKind::kCnot:
    case OpKind::kSwap:
    case OpKind::kControlledRotation:
    case OpKind::kCustomTwo:
      return true;
    default:
      return false;
  }
}

bool is_parameterized(OpKind kind) noexcept {
  return kind == OpKind::kRotation || kind == OpKind::kControlledRotation;
}

Circuit::Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {
  QBARREN_REQUIRE(num_qubits >= 1, "Circuit: need at least one qubit");
}

void Circuit::check_qubit(std::size_t q) const {
  QBARREN_REQUIRE(q < num_qubits_, "Circuit: qubit index out of range");
}

void Circuit::push_op(const Operation& op) {
  // Structural mutation: any previously compiled plan no longer matches.
  invalidate_execution_plan();
  ops_.push_back(op);
}

std::size_t Circuit::two_qubit_gate_count() const noexcept {
  std::size_t n = 0;
  for (const Operation& op : ops_) {
    if (is_two_qubit(op.kind)) ++n;
  }
  return n;
}

std::size_t Circuit::depth() const {
  // Greedy ASAP scheduling: each op lands one layer after the latest busy
  // layer among its qubits.
  std::vector<std::size_t> busy_until(num_qubits_, 0);
  std::size_t depth = 0;
  for (const Operation& op : ops_) {
    std::size_t layer = busy_until[op.qubit0] + 1;
    if (is_two_qubit(op.kind)) {
      layer = std::max(layer, busy_until[op.qubit1] + 1);
    }
    busy_until[op.qubit0] = layer;
    if (is_two_qubit(op.kind)) {
      busy_until[op.qubit1] = layer;
    }
    depth = std::max(depth, layer);
  }
  return depth;
}

const Operation& Circuit::operation_for_parameter(
    std::size_t param_index) const {
  QBARREN_REQUIRE(param_index < num_params_,
                  "Circuit::operation_for_parameter: index out of range");
  if (const auto plan = plan_slot_.get()) {
    // Compiled param->op binding table: O(1) instead of the linear scan.
    const std::size_t op_index = plan->source_op_for_parameter(param_index);
    if (op_index != ExecutionPlan::kNoOperation && op_index < ops_.size()) {
      return ops_[op_index];
    }
  } else {
    for (const Operation& op : ops_) {
      if (is_parameterized(op.kind) && op.param_index == param_index) {
        return op;
      }
    }
  }
  throw NotFound(
      "Circuit::operation_for_parameter: no operation consumes parameter " +
      std::to_string(param_index));
}

void Circuit::set_layer_shape(LayerShape shape) {
  QBARREN_REQUIRE(shape.layers > 0 && shape.params_per_layer > 0,
                  "Circuit::set_layer_shape: dimensions must be positive");
  layer_shape_ = shape;
}

std::size_t Circuit::add_rotation(gates::Axis axis, std::size_t qubit) {
  check_qubit(qubit);
  Operation op;
  op.kind = OpKind::kRotation;
  op.axis = axis;
  op.qubit0 = qubit;
  op.param_index = num_params_++;
  push_op(op);
  return op.param_index;
}

std::size_t Circuit::add_controlled_rotation(gates::Axis axis,
                                             std::size_t control,
                                             std::size_t target) {
  check_qubit(control);
  check_qubit(target);
  QBARREN_REQUIRE(control != target,
                  "Circuit::add_controlled_rotation: qubits must differ");
  Operation op;
  op.kind = OpKind::kControlledRotation;
  op.axis = axis;
  op.qubit0 = control;
  op.qubit1 = target;
  op.param_index = num_params_++;
  push_op(op);
  return op.param_index;
}

void Circuit::add_fixed_rotation(gates::Axis axis, std::size_t qubit,
                                 double angle) {
  check_qubit(qubit);
  Operation op;
  op.kind = OpKind::kFixedRotation;
  op.axis = axis;
  op.qubit0 = qubit;
  op.fixed_angle = angle;
  push_op(op);
}

namespace {
Operation single(OpKind kind, std::size_t qubit) {
  Operation op;
  op.kind = kind;
  op.qubit0 = qubit;
  return op;
}
}  // namespace

void Circuit::add_hadamard(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kHadamard, qubit));
}
void Circuit::add_pauli_x(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kPauliX, qubit));
}
void Circuit::add_pauli_y(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kPauliY, qubit));
}
void Circuit::add_pauli_z(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kPauliZ, qubit));
}
void Circuit::add_s(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kSGate, qubit));
}
void Circuit::add_t(std::size_t qubit) {
  check_qubit(qubit);
  push_op(single(OpKind::kTGate, qubit));
}

void Circuit::add_cz(std::size_t a, std::size_t b) {
  check_qubit(a);
  check_qubit(b);
  QBARREN_REQUIRE(a != b, "Circuit::add_cz: qubits must differ");
  Operation op;
  op.kind = OpKind::kCz;
  op.qubit0 = a;
  op.qubit1 = b;
  push_op(op);
}

void Circuit::add_cnot(std::size_t control, std::size_t target) {
  check_qubit(control);
  check_qubit(target);
  QBARREN_REQUIRE(control != target, "Circuit::add_cnot: qubits must differ");
  Operation op;
  op.kind = OpKind::kCnot;
  op.qubit0 = control;
  op.qubit1 = target;
  push_op(op);
}

void Circuit::add_swap(std::size_t a, std::size_t b) {
  check_qubit(a);
  check_qubit(b);
  QBARREN_REQUIRE(a != b, "Circuit::add_swap: qubits must differ");
  Operation op;
  op.kind = OpKind::kSwap;
  op.qubit0 = a;
  op.qubit1 = b;
  push_op(op);
}

void Circuit::add_custom_gate(std::string name, ComplexMatrix matrix,
                              std::size_t qubit) {
  check_qubit(qubit);
  Operation op;
  op.kind = OpKind::kCustomSingle;
  op.qubit0 = qubit;
  op.custom_index = custom_gates_.size();
  custom_gates_.push_back(CustomGate{std::move(name), std::move(matrix)});
  push_op(op);
}

void Circuit::add_custom_two_qubit_gate(std::string name,
                                        ComplexMatrix matrix,
                                        std::size_t q_low,
                                        std::size_t q_high) {
  check_qubit(q_low);
  check_qubit(q_high);
  QBARREN_REQUIRE(q_low < q_high,
                  "Circuit::add_custom_two_qubit_gate: q_low must be less "
                  "than q_high (matrix bit 0 = q_low)");
  Operation op;
  op.kind = OpKind::kCustomTwo;
  op.qubit0 = q_low;
  op.qubit1 = q_high;
  op.custom_index = custom_gates_.size();
  custom_gates_.push_back(CustomGate{std::move(name), std::move(matrix)});
  push_op(op);
}

const CustomGate& Circuit::custom_gate(const Operation& op) const {
  QBARREN_REQUIRE(op.kind == OpKind::kCustomSingle ||
                      op.kind == OpKind::kCustomTwo,
                  "Circuit::custom_gate: operation is not a custom gate");
  QBARREN_REQUIRE(op.custom_index < custom_gates_.size(),
                  "Circuit::custom_gate: dangling custom-gate index");
  return custom_gates_[op.custom_index];
}

ComplexMatrix Circuit::op_matrix(const Operation& op,
                                 std::span<const double> params) const {
  switch (op.kind) {
    case OpKind::kRotation:
      return gates::rotation(op.axis, params[op.param_index]);
    case OpKind::kFixedRotation:
      return gates::rotation(op.axis, op.fixed_angle);
    case OpKind::kControlledRotation: {
      // Matrix bit 0 = control (consistent with CNOT / apply path).
      const ComplexMatrix r =
          gates::rotation(op.axis, params[op.param_index]);
      ComplexMatrix full = ComplexMatrix::identity(4);
      full(1, 1) = r.at_unchecked(0, 0);
      full(1, 3) = r.at_unchecked(0, 1);
      full(3, 1) = r.at_unchecked(1, 0);
      full(3, 3) = r.at_unchecked(1, 1);
      return full;
    }
    case OpKind::kHadamard:
      return gates::hadamard();
    case OpKind::kPauliX:
      return gates::pauli_x();
    case OpKind::kPauliY:
      return gates::pauli_y();
    case OpKind::kPauliZ:
      return gates::pauli_z();
    case OpKind::kSGate:
      return gates::s_gate();
    case OpKind::kTGate:
      return gates::t_gate();
    case OpKind::kCz:
      return gates::cz();
    case OpKind::kCnot:
      return gates::cnot();
    case OpKind::kSwap:
      return gates::swap();
    case OpKind::kCustomSingle:
    case OpKind::kCustomTwo:
      return custom_gates_[op.custom_index].matrix;
  }
  throw InvalidArgument("Circuit::op_matrix: unknown op kind");
}

ComplexMatrix Circuit::operation_matrix(std::size_t op_index,
                                        std::span<const double> params) const {
  QBARREN_REQUIRE(op_index < ops_.size(),
                  "Circuit::operation_matrix: index out of range");
  return op_matrix(ops_[op_index], params);
}

ComplexMatrix Circuit::unitary(std::span<const double> params) const {
  QBARREN_REQUIRE(params.size() == num_params_,
                  "Circuit::unitary: parameter count mismatch");
  QBARREN_REQUIRE(num_qubits_ <= 10,
                  "Circuit::unitary: reference path limited to 10 qubits");
  const std::size_t dim = std::size_t{1} << num_qubits_;
  ComplexMatrix acc = ComplexMatrix::identity(dim);
  for (const Operation& op : ops_) {
    ComplexMatrix full(1, 1);
    if (is_two_qubit(op.kind)) {
      // embed_two_qubit expects (q_low, q_high) mapping to matrix bit 0 /
      // bit 1. For CNOT the matrix's control is bit 0, so pass
      // (control, target); for symmetric gates order is irrelevant.
      full = embed_two_qubit(op_matrix(op, params), op.qubit0, op.qubit1,
                             num_qubits_);
    } else {
      full = embed_single_qubit(op_matrix(op, params), op.qubit0, num_qubits_);
    }
    acc = full * acc;
  }
  return acc;
}

}  // namespace qbarren
