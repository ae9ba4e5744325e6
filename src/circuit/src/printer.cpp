#include "qbarren/circuit/printer.hpp"

#include <sstream>

namespace qbarren {

namespace {

std::string qasm_rotation_name(gates::Axis axis) {
  switch (axis) {
    case gates::Axis::kX:
      return "rx";
    case gates::Axis::kY:
      return "ry";
    case gates::Axis::kZ:
      return "rz";
  }
  return "r?";
}

}  // namespace

std::string to_qasm(const Circuit& circuit, std::span<const double> params) {
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "to_qasm: parameter count mismatch");
  std::ostringstream oss;
  oss << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  oss << "qreg q[" << circuit.num_qubits() << "];\n";
  for (const Operation& op : circuit.operations()) {
    switch (op.kind) {
      case OpKind::kRotation:
        oss << qasm_rotation_name(op.axis) << "(" << params[op.param_index]
            << ") q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kFixedRotation:
        oss << qasm_rotation_name(op.axis) << "(" << op.fixed_angle << ") q["
            << op.qubit0 << "];\n";
        break;
      case OpKind::kControlledRotation:
        // qelib1.inc only defines the Z-axis controlled rotation.
        QBARREN_REQUIRE(op.axis == gates::Axis::kZ,
                        "to_qasm: OpenQASM 2 (qelib1) has no CRX/CRY; "
                        "decompose before export");
        oss << "crz(" << params[op.param_index] << ") q[" << op.qubit0
            << "], q[" << op.qubit1 << "];\n";
        break;
      case OpKind::kHadamard:
        oss << "h q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kPauliX:
        oss << "x q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kPauliY:
        oss << "y q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kPauliZ:
        oss << "z q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kSGate:
        oss << "s q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kTGate:
        oss << "t q[" << op.qubit0 << "];\n";
        break;
      case OpKind::kCz:
        oss << "cz q[" << op.qubit0 << "], q[" << op.qubit1 << "];\n";
        break;
      case OpKind::kCnot:
        oss << "cx q[" << op.qubit0 << "], q[" << op.qubit1 << "];\n";
        break;
      case OpKind::kSwap:
        oss << "swap q[" << op.qubit0 << "], q[" << op.qubit1 << "];\n";
        break;
      case OpKind::kCustomSingle:
      case OpKind::kCustomTwo:
        throw InvalidArgument(
            "to_qasm: OpenQASM 2 cannot express custom matrix gates "
            "(gate '" + circuit.custom_gate(op).name + "')");
    }
  }
  return oss.str();
}

}  // namespace qbarren
