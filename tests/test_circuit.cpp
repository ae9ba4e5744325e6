// Unit and property tests for the Circuit IR: building, execution through
// its compiled plan (per-op inverses and derivatives included), and the
// dense unitary reference path.
#include "qbarren/circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/printer.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-11;

TEST(Circuit, RequiresAtLeastOneQubit) {
  EXPECT_THROW(Circuit(0), InvalidArgument);
}

TEST(Circuit, RotationAllocatesSequentialParameters) {
  Circuit c(2);
  EXPECT_EQ(c.add_rotation(gates::Axis::kX, 0), 0u);
  EXPECT_EQ(c.add_rotation(gates::Axis::kY, 1), 1u);
  EXPECT_EQ(c.add_rotation(gates::Axis::kZ, 0), 2u);
  EXPECT_EQ(c.num_parameters(), 3u);
  EXPECT_EQ(c.num_operations(), 3u);
}

TEST(Circuit, FixedRotationIsNotTrainable) {
  Circuit c(1);
  c.add_fixed_rotation(gates::Axis::kY, 0, 0.5);
  EXPECT_EQ(c.num_parameters(), 0u);
  EXPECT_EQ(c.num_operations(), 1u);
}

TEST(Circuit, BuilderValidatesQubits) {
  Circuit c(2);
  EXPECT_THROW(c.add_rotation(gates::Axis::kX, 2), InvalidArgument);
  EXPECT_THROW(c.add_hadamard(5), InvalidArgument);
  EXPECT_THROW(c.add_cz(0, 0), InvalidArgument);
  EXPECT_THROW(c.add_cz(0, 2), InvalidArgument);
  EXPECT_THROW(c.add_cnot(1, 1), InvalidArgument);
  EXPECT_THROW(c.add_swap(0, 3), InvalidArgument);
}

TEST(Circuit, TwoQubitGateCount) {
  Circuit c(3);
  c.add_hadamard(0);
  c.add_cz(0, 1);
  c.add_cnot(1, 2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_swap(0, 2);
  EXPECT_EQ(c.two_qubit_gate_count(), 3u);
}

TEST(Circuit, ApplyValidatesSizes) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  const auto plan = exec::plan_for(c);
  const std::size_t n = plan->num_plan_ops();
  StateVector narrow(1);
  StateVector ok(2);
  const std::vector<double> params{0.1};
  const std::vector<double> wrong{0.1, 0.2};
  EXPECT_THROW(plan->apply_plan_ops(narrow, params, 0, n), InvalidArgument);
  EXPECT_THROW(plan->apply_plan_ops(ok, wrong, 0, n), InvalidArgument);
  EXPECT_THROW((void)exec::simulate(c, wrong), InvalidArgument);
  EXPECT_NO_THROW(plan->apply_plan_ops(ok, params, 0, n));
}

TEST(Circuit, SimulateSingleRotationMatchesAnalytic) {
  // RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>.
  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  const double theta = 0.9;
  const std::vector<double> params{theta};
  const StateVector s = exec::simulate(c, params);
  EXPECT_NEAR(s.amplitude(0).real(), std::cos(theta / 2.0), kTol);
  EXPECT_NEAR(s.amplitude(1).real(), std::sin(theta / 2.0), kTol);
}

TEST(Circuit, EveryOpKindExecutes) {
  Circuit c(3);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_fixed_rotation(gates::Axis::kZ, 1, 0.2);
  c.add_hadamard(0);
  c.add_pauli_x(1);
  c.add_pauli_y(2);
  c.add_pauli_z(0);
  c.add_s(1);
  c.add_t(2);
  c.add_cz(0, 1);
  c.add_cnot(1, 2);
  c.add_swap(0, 2);
  const std::vector<double> params{0.4};
  const StateVector s = exec::simulate(c, params);
  EXPECT_NEAR(s.norm_squared(), 1.0, kTol);
}

TEST(Circuit, UnitaryReferenceMatchesSimulation) {
  Rng rng(5);
  Circuit c(3);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_rotation(gates::Axis::kY, 1);
  c.add_cz(0, 1);
  c.add_cnot(2, 0);
  c.add_rotation(gates::Axis::kZ, 2);
  c.add_hadamard(1);
  const std::vector<double> params{0.3, -1.1, 2.2};

  const ComplexMatrix u = c.unitary(params);
  EXPECT_TRUE(is_unitary(u, 1e-10));

  // Column 0 of U is U|000>.
  const StateVector s = exec::simulate(c, params);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(u(i, 0) - s.amplitude(i)), 0.0, 1e-10);
  }
}

TEST(Circuit, CnotConventionConsistentBetweenFastAndDensePaths) {
  // |q0 = 1> control set, target q1 flips.
  Circuit c(2);
  c.add_pauli_x(0);
  c.add_cnot(0, 1);
  const StateVector s = exec::simulate(c, {});
  EXPECT_NEAR(s.probability(0b11), 1.0, kTol);

  const ComplexMatrix u = c.unitary({});
  EXPECT_NEAR(std::abs(u(3, 0)), 1.0, 1e-10);
}

TEST(Circuit, InverseOpsUndoForward) {
  Rng rng(6);
  Circuit c(3);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_s(1);
  c.add_t(2);
  c.add_hadamard(0);
  c.add_cz(1, 2);
  c.add_cnot(0, 2);
  c.add_swap(1, 2);
  c.add_fixed_rotation(gates::Axis::kY, 1, 0.77);
  const std::vector<double> params{1.3};
  const auto plan = exec::plan_for(c);

  StateVector s(3);
  // Scramble the start state so the test is not trivially about |0...0>.
  s.apply_single_qubit(gates::u3(0.5, 0.2, 0.9), 0);
  s.apply_single_qubit(gates::u3(1.5, -0.2, 0.4), 2);
  const StateVector initial = s;

  plan->apply_plan_ops(s, params, 0, plan->num_plan_ops());
  for (std::size_t k = plan->num_plan_ops(); k-- > 0;) {
    plan->apply_plan_op_inverse(k, s, params);
  }
  EXPECT_NEAR(s.fidelity(initial), 1.0, 1e-10);
}

TEST(Circuit, DerivativeRequiresTrainableRotation) {
  Circuit c(1);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 0);
  const auto plan = exec::plan_for(c);
  const StateVector s(1);
  StateVector d(1);
  const std::vector<double> params{0.1};
  EXPECT_THROW(plan->apply_plan_op_derivative(0, s, d, params),
               InvalidArgument);
  EXPECT_NO_THROW(plan->apply_plan_op_derivative(1, s, d, params));
}

TEST(Circuit, OperationIndexValidated) {
  Circuit c(1);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 0);
  const auto plan = exec::plan_for(c);
  StateVector s(1);
  StateVector d(1);
  const std::vector<double> params{0.1};
  EXPECT_THROW(plan->apply_plan_op(2, s, params), InvalidArgument);
  EXPECT_THROW(plan->apply_plan_op_inverse(2, s, params), InvalidArgument);
  EXPECT_THROW(plan->apply_plan_op_derivative(2, s, d, params),
               InvalidArgument);
  EXPECT_THROW(plan->apply_plan_ops(s, params, 1, 3), InvalidArgument);
}

TEST(Circuit, AppendRemapsParameters) {
  Circuit a(2);
  a.add_rotation(gates::Axis::kX, 0);
  Circuit b(2);
  b.add_rotation(gates::Axis::kY, 1);
  b.add_rotation(gates::Axis::kZ, 0);

  a.append(b);
  EXPECT_EQ(a.num_parameters(), 3u);
  EXPECT_EQ(a.num_operations(), 3u);
  EXPECT_EQ(a.operations()[1].param_index, 1u);
  EXPECT_EQ(a.operations()[2].param_index, 2u);
}

TEST(Circuit, AppendRejectsWidthMismatch) {
  Circuit a(2);
  const Circuit b(3);
  EXPECT_THROW(a.append(b), InvalidArgument);
}

TEST(Circuit, AppendEqualsSequentialExecution) {
  Circuit a(2);
  a.add_rotation(gates::Axis::kX, 0);
  a.add_cz(0, 1);
  Circuit b(2);
  b.add_rotation(gates::Axis::kY, 1);

  Circuit combined = a;
  combined.append(b);
  const std::vector<double> params{0.4, 1.2};

  const StateVector via_combined = exec::simulate(combined, params);
  StateVector via_sequence(2);
  for (const auto& [part, part_params] :
       {std::pair{&a, std::vector<double>{0.4}},
        std::pair{&b, std::vector<double>{1.2}}}) {
    const auto plan = exec::plan_for(*part);
    plan->apply_plan_ops(via_sequence, part_params, 0, plan->num_plan_ops());
  }
  EXPECT_NEAR(via_combined.fidelity(via_sequence), 1.0, kTol);
}

TEST(Circuit, DepthComputation) {
  Circuit c(3);
  EXPECT_EQ(c.depth(), 0u);
  c.add_hadamard(0);
  EXPECT_EQ(c.depth(), 1u);
  c.add_hadamard(1);  // parallel with the first H
  EXPECT_EQ(c.depth(), 1u);
  c.add_cz(0, 1);  // must follow both
  EXPECT_EQ(c.depth(), 2u);
  c.add_hadamard(2);  // parallel with everything
  EXPECT_EQ(c.depth(), 2u);
  c.add_cz(1, 2);  // follows the first CZ (qubit 1) and H (qubit 2)
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, DepthOfSerialChain) {
  Circuit c(1);
  for (int i = 0; i < 7; ++i) {
    c.add_t(0);
  }
  EXPECT_EQ(c.depth(), 7u);
}

TEST(Circuit, DepthOfTrainingAnsatz) {
  // One Eq 3 layer on n qubits: RX (1) + RY (1) + CZ ladder (n-1 serial
  // on the shared-qubit chain) = n + 1.
  TrainingAnsatzOptions one_layer;
  one_layer.layers = 1;
  EXPECT_EQ(training_ansatz(4, one_layer).depth(), 4u + 1u);

  // Stacked layers overlap under greedy ASAP scheduling (the second
  // layer's early-qubit rotations start while the first layer's ladder is
  // still running down the chain), so two layers cost 9, not 10.
  TrainingAnsatzOptions two_layers;
  two_layers.layers = 2;
  const Circuit c = training_ansatz(4, two_layers);
  EXPECT_EQ(c.depth(), 9u);
  EXPECT_LT(c.depth(), 2u * (4u + 1u));
}

TEST(Circuit, LayerShapeValidation) {
  Circuit c(2);
  EXPECT_FALSE(c.layer_shape().has_value());
  EXPECT_THROW(c.set_layer_shape(LayerShape{0, 4}), InvalidArgument);
  c.set_layer_shape(LayerShape{3, 4});
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->layers, 3u);
}

TEST(Circuit, AppendDropsLayerShape) {
  Circuit a(2);
  a.set_layer_shape(LayerShape{1, 2});
  const Circuit b(2);
  a.append(b);
  EXPECT_FALSE(a.layer_shape().has_value());
}

TEST(Circuit, UnitaryRefusesWideRegisters) {
  const Circuit c(11);
  EXPECT_THROW((void)c.unitary({}), InvalidArgument);
}

TEST(Printer, QasmDumpIsWellFormed) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_hadamard(1);
  c.add_cnot(0, 1);
  const std::string qasm = to_qasm(c, std::vector<double>{0.25});
  EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
  EXPECT_NE(qasm.find("rx(0.25) q[0];"), std::string::npos);
  EXPECT_NE(qasm.find("h q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
}

TEST(Printer, QasmValidatesParameterCount) {
  Circuit c(1);
  c.add_rotation(gates::Axis::kX, 0);
  EXPECT_THROW((void)to_qasm(c, std::vector<double>{}), InvalidArgument);
}

// Property: simulation equals the dense unitary applied to |0...0> for
// random circuits across widths.
class CircuitReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CircuitReference, FastPathMatchesDenseUnitary) {
  const std::size_t n = GetParam();
  Rng rng(splitmix64(n + 100));
  Circuit c(n);
  std::vector<double> params;
  for (int step = 0; step < 30; ++step) {
    const std::size_t q = rng.index(n);
    switch (rng.index(5)) {
      case 0:
        c.add_rotation(static_cast<gates::Axis>(rng.index(3)), q);
        params.push_back(rng.uniform(0.0, 2.0 * M_PI));
        break;
      case 1:
        c.add_hadamard(q);
        break;
      case 2:
        c.add_t(q);
        break;
      case 3:
        if (n >= 2) {
          std::size_t p = rng.index(n);
          if (p == q) p = (p + 1) % n;
          c.add_cz(q, p);
        }
        break;
      case 4:
        if (n >= 2) {
          std::size_t p = rng.index(n);
          if (p == q) p = (p + 1) % n;
          c.add_cnot(q, p);
        }
        break;
    }
  }
  const StateVector fast = exec::simulate(c, params);
  const ComplexMatrix u = c.unitary(params);
  EXPECT_TRUE(is_unitary(u, 1e-9));
  for (std::size_t i = 0; i < fast.dimension(); ++i) {
    EXPECT_NEAR(std::abs(u(i, 0) - fast.amplitude(i)), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CircuitReference,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace qbarren
