// Tests for the OpenQASM 2.0 parser, including round-trips with the
// printer.
#include "qbarren/circuit/qasm_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/printer.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {
namespace {

TEST(QasmParser, MinimalProgram) {
  const ParsedQasm parsed = parse_qasm(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n");
  EXPECT_EQ(parsed.circuit.num_qubits(), 2u);
  EXPECT_EQ(parsed.circuit.num_operations(), 1u);
  EXPECT_EQ(parsed.circuit.operations()[0].kind, OpKind::kHadamard);
  EXPECT_TRUE(parsed.parameters.empty());
}

TEST(QasmParser, RotationsBecomeTrainableParameters) {
  const ParsedQasm parsed = parse_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrx(0.25) q[0];\nry(-1.5) q[0];\n"
      "rz(2e-3) q[0];\n");
  EXPECT_EQ(parsed.circuit.num_parameters(), 3u);
  ASSERT_EQ(parsed.parameters.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.parameters[0], 0.25);
  EXPECT_DOUBLE_EQ(parsed.parameters[1], -1.5);
  EXPECT_DOUBLE_EQ(parsed.parameters[2], 2e-3);
  EXPECT_EQ(parsed.circuit.operations()[0].axis, gates::Axis::kX);
  EXPECT_EQ(parsed.circuit.operations()[1].axis, gates::Axis::kY);
  EXPECT_EQ(parsed.circuit.operations()[2].axis, gates::Axis::kZ);
}

TEST(QasmParser, PiExpressions) {
  const ParsedQasm parsed = parse_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrx(pi) q[0];\nry(pi/2) q[0];\n"
      "rz(-pi/4) q[0];\nrx(3*pi/4) q[0];\n");
  ASSERT_EQ(parsed.parameters.size(), 4u);
  EXPECT_NEAR(parsed.parameters[0], M_PI, 1e-12);
  EXPECT_NEAR(parsed.parameters[1], M_PI / 2.0, 1e-12);
  EXPECT_NEAR(parsed.parameters[2], -M_PI / 4.0, 1e-12);
  EXPECT_NEAR(parsed.parameters[3], 3.0 * M_PI / 4.0, 1e-12);
}

TEST(QasmParser, TwoQubitGates) {
  const ParsedQasm parsed = parse_qasm(
      "OPENQASM 2.0;\nqreg q[3];\ncz q[0], q[1];\ncx q[1], q[2];\n"
      "swap q[0], q[2];\n");
  const auto& ops = parsed.circuit.operations();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, OpKind::kCz);
  EXPECT_EQ(ops[1].kind, OpKind::kCnot);
  EXPECT_EQ(ops[1].qubit0, 1u);
  EXPECT_EQ(ops[1].qubit1, 2u);
  EXPECT_EQ(ops[2].kind, OpKind::kSwap);
}

TEST(QasmParser, CommentsAndBlankLinesSkipped) {
  const ParsedQasm parsed = parse_qasm(
      "OPENQASM 2.0;\n// a comment\n\nqreg q[1];\nx q[0]; // trailing\n");
  EXPECT_EQ(parsed.circuit.num_operations(), 1u);
}

TEST(QasmParser, MultipleStatementsPerLine) {
  const ParsedQasm parsed =
      parse_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; cz q[0], q[1];");
  EXPECT_EQ(parsed.circuit.num_operations(), 2u);
}

TEST(QasmParser, CregIgnored) {
  const ParsedQasm parsed =
      parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nz q[0];\n");
  EXPECT_EQ(parsed.circuit.num_operations(), 1u);
}

TEST(QasmParser, ErrorCases) {
  // Missing header.
  EXPECT_THROW((void)parse_qasm("qreg q[1];\n"), InvalidArgument);
  // Missing qreg.
  EXPECT_THROW((void)parse_qasm("OPENQASM 2.0;\n"), InvalidArgument);
  // Gate before qreg.
  EXPECT_THROW((void)parse_qasm("OPENQASM 2.0;\nh q[0];\nqreg q[1];\n"),
               InvalidArgument);
  // Unknown gate.
  EXPECT_THROW(
      (void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nccx q[0];\n"),
      InvalidArgument);
  // Out-of-range qubit.
  EXPECT_THROW((void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[1];\n"),
               InvalidArgument);
  // Wrong register name.
  EXPECT_THROW((void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh r[0];\n"),
               InvalidArgument);
  // Bad angle.
  EXPECT_THROW(
      (void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(abc) q[0];\n"),
      InvalidArgument);
  // Division by zero in the angle grammar.
  EXPECT_THROW(
      (void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(pi/0) q[0];\n"),
      InvalidArgument);
  // Missing second operand.
  EXPECT_THROW(
      (void)parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncz q[0];\n"),
      InvalidArgument);
  // Zero-width register.
  EXPECT_THROW((void)parse_qasm("OPENQASM 2.0;\nqreg q[0];\n"),
               InvalidArgument);
  // Duplicate qreg.
  EXPECT_THROW(
      (void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nqreg r[1];\n"),
      InvalidArgument);
}

TEST(QasmParser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_qasm("OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(QasmParser, RoundTripWithPrinter) {
  // Dump the Eq 3 ansatz, parse it back, and check the simulated states
  // agree amplitude-for-amplitude.
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit original = training_ansatz(3, options);
  Rng rng(8);
  const auto params =
      rng.uniform_vector(original.num_parameters(), -3.0, 3.0);

  const std::string qasm = to_qasm(original, params);
  const ParsedQasm parsed = parse_qasm(qasm);

  ASSERT_EQ(parsed.circuit.num_qubits(), original.num_qubits());
  ASSERT_EQ(parsed.circuit.num_parameters(), original.num_parameters());

  const StateVector a = exec::simulate(original, params);
  const StateVector b = exec::simulate(parsed.circuit, parsed.parameters);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

TEST(QasmParser, DoubleRoundTripIsStable) {
  TrainingAnsatzOptions options;
  options.layers = 1;
  const Circuit original = training_ansatz(2, options);
  Rng rng(9);
  const auto params =
      rng.uniform_vector(original.num_parameters(), 0.0, 6.0);
  const ParsedQasm once = parse_qasm(to_qasm(original, params));
  const ParsedQasm twice =
      parse_qasm(to_qasm(once.circuit, once.parameters));
  EXPECT_EQ(once.circuit.num_operations(), twice.circuit.num_operations());
  for (std::size_t i = 0; i < once.parameters.size(); ++i) {
    EXPECT_NEAR(once.parameters[i], twice.parameters[i], 1e-9);
  }
}

}  // namespace
}  // namespace qbarren
