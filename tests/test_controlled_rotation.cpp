// Tests for trainable controlled rotations: simulation correctness,
// adjoint derivatives, the four-term parameter-shift rule, and
// integration with the printer / parser / optimizer / light-cone tools.
#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/bp/lightcone.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/optimize.hpp"
#include "qbarren/circuit/printer.hpp"
#include "qbarren/circuit/qasm_parser.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/linalg/checks.hpp"
#include "qbarren/opt/trainer.hpp"

namespace qbarren {
namespace {

TEST(ControlledRotation, BuilderValidation) {
  Circuit c(2);
  EXPECT_THROW((void)c.add_controlled_rotation(gates::Axis::kZ, 0, 0),
               InvalidArgument);
  EXPECT_THROW((void)c.add_controlled_rotation(gates::Axis::kZ, 0, 2),
               InvalidArgument);
  EXPECT_EQ(c.add_controlled_rotation(gates::Axis::kZ, 0, 1), 0u);
  EXPECT_EQ(c.num_parameters(), 1u);
  EXPECT_EQ(c.two_qubit_gate_count(), 1u);
}

TEST(ControlledRotation, ActsOnlyWhenControlSet) {
  // Control |0>: identity on the target.
  Circuit c(2);
  (void)c.add_controlled_rotation(gates::Axis::kY, 0, 1);
  const StateVector untouched = exec::simulate(c, std::vector<double>{1.3});
  EXPECT_NEAR(untouched.probability(0b00), 1.0, 1e-12);

  // Control |1>: RY rotates the target.
  Circuit c2(2);
  c2.add_pauli_x(0);
  (void)c2.add_controlled_rotation(gates::Axis::kY, 0, 1);
  const double theta = 1.3;
  const StateVector rotated = exec::simulate(c2, std::vector<double>{theta});
  EXPECT_NEAR(rotated.probability(0b01),
              std::cos(theta / 2.0) * std::cos(theta / 2.0), 1e-12);
  EXPECT_NEAR(rotated.probability(0b11),
              std::sin(theta / 2.0) * std::sin(theta / 2.0), 1e-12);
}

TEST(ControlledRotation, CrzMatchesGateMatrix) {
  // The IR's controlled-Z-rotation must equal gates::crz (control = low
  // matrix bit) embedded over the pair.
  Circuit c(2);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  const double theta = 0.77;
  const ComplexMatrix via_circuit = c.unitary(std::vector<double>{theta});
  const ComplexMatrix expected =
      embed_two_qubit(gates::crz(theta), 0, 1, 2);
  EXPECT_LT(max_abs_diff(via_circuit, expected), 1e-12);
}

TEST(ControlledRotation, InverseUndoesForward) {
  Circuit c(3);
  c.add_hadamard(0);
  c.add_hadamard(2);
  (void)c.add_controlled_rotation(gates::Axis::kX, 0, 2);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 2, 1);
  const std::vector<double> params{0.9, -1.7};
  const auto plan = exec::plan_for(c);

  StateVector s(3);
  plan->apply_plan_ops(s, params, 0, plan->num_plan_ops());
  for (std::size_t k = plan->num_plan_ops(); k-- > 0;) {
    plan->apply_plan_op_inverse(k, s, params);
  }
  EXPECT_NEAR(s.probability(0), 1.0, 1e-11);
}

TEST(ControlledRotation, AdjointMatchesFiniteDifference) {
  Circuit c(3);
  c.add_hadamard(0);
  c.add_hadamard(1);
  (void)c.add_rotation(gates::Axis::kY, 2);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  (void)c.add_controlled_rotation(gates::Axis::kY, 1, 2);
  c.add_cz(0, 2);
  const GlobalZeroObservable obs(3);
  const AdjointEngine adjoint;
  const FiniteDifferenceEngine fd(1e-6);
  const std::vector<double> params{0.4, 1.1, -0.8};
  const auto ga = adjoint.gradient(c, obs, params);
  const auto gf = fd.gradient(c, obs, params);
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_NEAR(ga[i], gf[i], 1e-6) << i;
  }
}

TEST(ControlledRotation, FourTermShiftRuleIsExact) {
  // The headline property: the two-term rule is wrong for controlled
  // rotations, the four-term rule matches the exact (adjoint) gradient.
  // The cost must carry the frequency-1/2 component, which lives in the
  // coherences between the control-0 and control-1 subspaces — measure X
  // on the control qubit to expose it. (For observables confined to one
  // control subspace, e.g. |00><00| after H on the control, the two-term
  // rule happens to coincide.)
  Circuit c(2);
  c.add_hadamard(0);
  (void)c.add_rotation(gates::Axis::kY, 1);
  (void)c.add_controlled_rotation(gates::Axis::kY, 0, 1);
  const PauliStringObservable obs("XI");  // X on the control qubit
  const ParameterShiftEngine shift;
  const AdjointEngine adjoint;
  const std::vector<double> params{0.6, 1.9};

  const auto gs = shift.gradient(c, obs, params);
  const auto ga = adjoint.gradient(c, obs, params);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], ga[i], 1e-10) << i;
  }

  // Demonstrate the two-term rule actually fails here (i.e. the branch
  // matters): naive 0.5 * (C(+pi/2) - C(-pi/2)) on the controlled
  // parameter deviates from the true gradient.
  auto cost_at = [&](double shift_amount) {
    std::vector<double> p = params;
    p[1] += shift_amount;
    return obs.expectation(exec::simulate(c, p));
  };
  const double naive =
      0.5 * (cost_at(M_PI / 2.0) - cost_at(-M_PI / 2.0));
  EXPECT_GT(std::abs(naive - ga[1]), 1e-4);
}

TEST(ControlledRotation, TrainsEndToEnd) {
  auto circuit = std::make_shared<const Circuit>(
      controlled_rotation_ansatz(3, 2));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;
  auto optimizer = make_optimizer("adam", 0.1);
  TrainOptions options;
  options.max_iterations = 40;
  const std::vector<double> init(circuit->num_parameters(), 0.4);
  const TrainResult result =
      train(cost, engine, *optimizer, init, options);
  EXPECT_LT(result.final_loss, 0.02);
}

TEST(ControlledRotation, AnsatzStructure) {
  const Circuit c = controlled_rotation_ansatz(4, 3);
  // Per layer: 4 RY + 3 CRZ = 7 parameters.
  EXPECT_EQ(c.num_parameters(), 21u);
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->params_per_layer, 7u);
  EXPECT_THROW((void)controlled_rotation_ansatz(1, 2), InvalidArgument);
  EXPECT_THROW((void)controlled_rotation_ansatz(2, 0), InvalidArgument);
}

TEST(ControlledRotation, PrinterAndQasmRoundTrip) {
  Circuit c(2);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  const std::vector<double> params{0.5};

  EXPECT_NE(to_text(c).find("CRZ(theta[0]) q[0], q[1]"),
            std::string::npos);

  const std::string qasm = to_qasm(c, params);
  EXPECT_NE(qasm.find("crz(0.5) q[0], q[1];"), std::string::npos);
  const ParsedQasm parsed = parse_qasm(qasm);
  EXPECT_EQ(parsed.circuit.num_parameters(), 1u);
  EXPECT_NEAR(parsed.parameters[0], 0.5, 1e-12);
  EXPECT_NEAR(exec::simulate(parsed.circuit, parsed.parameters)
                  .fidelity(exec::simulate(c, params)),
              1.0, 1e-12);

  // CRX/CRY have no qelib1 equivalent: export must refuse loudly.
  Circuit crx(2);
  (void)crx.add_controlled_rotation(gates::Axis::kX, 0, 1);
  EXPECT_THROW((void)to_qasm(crx, std::vector<double>{0.1}),
               InvalidArgument);
}

TEST(ControlledRotation, OptimizerPassPreservesIt) {
  Circuit c(2);
  c.add_hadamard(0);
  c.add_hadamard(0);  // cancelling pair
  (void)c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  const Circuit opt = optimize_circuit(c);
  EXPECT_EQ(opt.num_operations(), 1u);
  EXPECT_EQ(opt.num_parameters(), 1u);
  const std::vector<double> params{0.3};
  EXPECT_LT(max_abs_diff(c.unitary(params), opt.unitary(params)), 1e-12);
}

TEST(ControlledRotation, LightConeTreatsBothQubits) {
  Circuit c(3);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 1, 2);  // before CZ
  c.add_cz(0, 1);
  const LightConeReport report = analyze_light_cone(c, {0});
  // The CZ spreads {0} to {0,1}; the controlled rotation touches qubit 1,
  // so it is alive.
  EXPECT_TRUE(report.alive[0]);
  EXPECT_EQ(report.dead_count, 0u);
}

TEST(ControlledRotation, OperationForParameterLookup) {
  Circuit c(2);
  (void)c.add_rotation(gates::Axis::kX, 0);
  (void)c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  EXPECT_EQ(c.operation_for_parameter(0).kind, OpKind::kRotation);
  EXPECT_EQ(c.operation_for_parameter(1).kind,
            OpKind::kControlledRotation);
  EXPECT_THROW((void)c.operation_for_parameter(2), InvalidArgument);
}

}  // namespace
}  // namespace qbarren
