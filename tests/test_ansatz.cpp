// Tests for the hardware-efficient ansatz builders, including the paper's
// quoted structural counts (145 gates / 100 parameters at n=10, L=5).
#include "qbarren/circuit/ansatz.hpp"

#include <gtest/gtest.h>

#include <set>

namespace qbarren {
namespace {

TEST(TrainingAnsatz, PaperGateAndParameterCounts) {
  // Paper §IV-D: n = 10, L = 5 gives 145 gates and 100 parameters
  // (per layer: 10 RX + 10 RY + 9 CZ = 29; 29 * 5 = 145).
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit c = training_ansatz(10, options);
  EXPECT_EQ(c.num_operations(), 145u);
  EXPECT_EQ(c.num_parameters(), 100u);
  EXPECT_EQ(c.two_qubit_gate_count(), 45u);
}

TEST(TrainingAnsatz, LayerShapeRecorded) {
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit c = training_ansatz(10, options);
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->layers, 5u);
  EXPECT_EQ(c.layer_shape()->params_per_layer, 20u);
}

TEST(TrainingAnsatz, StructureIsRxRyPerQubitThenLadder) {
  TrainingAnsatzOptions options;
  options.layers = 1;
  const Circuit c = training_ansatz(3, options);
  const auto& ops = c.operations();
  ASSERT_EQ(ops.size(), 8u);  // 3 * (RX, RY) + 2 CZ
  EXPECT_EQ(ops[0].kind, OpKind::kRotation);
  EXPECT_EQ(ops[0].axis, gates::Axis::kX);
  EXPECT_EQ(ops[0].qubit0, 0u);
  EXPECT_EQ(ops[1].axis, gates::Axis::kY);
  EXPECT_EQ(ops[1].qubit0, 0u);
  EXPECT_EQ(ops[6].kind, OpKind::kCz);
  EXPECT_EQ(ops[6].qubit0, 0u);
  EXPECT_EQ(ops[6].qubit1, 1u);
  EXPECT_EQ(ops[7].qubit0, 1u);
  EXPECT_EQ(ops[7].qubit1, 2u);
}

TEST(TrainingAnsatz, SingleQubitHasNoEntanglers) {
  TrainingAnsatzOptions options;
  options.layers = 4;
  const Circuit c = training_ansatz(1, options);
  EXPECT_EQ(c.two_qubit_gate_count(), 0u);
  EXPECT_EQ(c.num_parameters(), 8u);
}

TEST(TrainingAnsatz, EntangleOff) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  options.entangle = false;
  const Circuit c = training_ansatz(4, options);
  EXPECT_EQ(c.two_qubit_gate_count(), 0u);
  EXPECT_EQ(c.num_parameters(), 16u);
}

TEST(TrainingAnsatz, RejectsZeroLayers) {
  TrainingAnsatzOptions options;
  options.layers = 0;
  EXPECT_THROW((void)training_ansatz(2, options), InvalidArgument);
}

TEST(VarianceAnsatz, CountsAndShape) {
  Rng rng(1);
  VarianceAnsatzOptions options;
  options.layers = 7;
  const Circuit c = variance_ansatz(5, rng, options);
  // Per layer: 5 rotations + 4 CZ.
  EXPECT_EQ(c.num_operations(), 7u * 9u);
  EXPECT_EQ(c.num_parameters(), 35u);
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->layers, 7u);
  EXPECT_EQ(c.layer_shape()->params_per_layer, 5u);
}

TEST(VarianceAnsatz, OperationListIsSizedExactly) {
  // Circuits are retained for a whole qubit count's cells, so the builder
  // reserves its final size instead of growing by doubling.
  for (const EntanglerTopology topology :
       {EntanglerTopology::kLinear, EntanglerTopology::kRing,
        EntanglerTopology::kAllToAll}) {
    for (const bool entangle : {true, false}) {
      for (const std::size_t qubits : {1u, 2u, 3u, 6u}) {
        Rng rng(4);
        VarianceAnsatzOptions options;
        options.layers = 9;
        options.entangle = entangle;
        options.topology = topology;
        const Circuit c = variance_ansatz(qubits, rng, options);
        EXPECT_EQ(variance_ansatz_operations(qubits, options),
                  c.num_operations());
        EXPECT_EQ(c.operations().capacity(), c.num_operations())
            << "topology=" << static_cast<int>(topology)
            << " entangle=" << entangle << " qubits=" << qubits;
      }
    }
  }
}

TEST(VarianceAnsatz, AxesAreRandomizedAcrossSeeds) {
  VarianceAnsatzOptions options;
  options.layers = 10;
  Rng rng_a(1);
  Rng rng_b(2);
  const Circuit a = variance_ansatz(4, rng_a, options);
  const Circuit b = variance_ansatz(4, rng_b, options);
  bool any_axis_differs = false;
  for (std::size_t i = 0; i < a.num_operations(); ++i) {
    if (a.operations()[i].kind == OpKind::kRotation &&
        a.operations()[i].axis != b.operations()[i].axis) {
      any_axis_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_axis_differs);
}

TEST(VarianceAnsatz, UsesAllThreeAxesEventually) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 30;
  const Circuit c = variance_ansatz(3, rng, options);
  std::set<gates::Axis> seen;
  for (const Operation& op : c.operations()) {
    if (op.kind == OpKind::kRotation) {
      seen.insert(op.axis);
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(VarianceAnsatz, DeterministicGivenSeed) {
  VarianceAnsatzOptions options;
  options.layers = 12;
  Rng a(9);
  Rng b(9);
  const Circuit ca = variance_ansatz(4, a, options);
  const Circuit cb = variance_ansatz(4, b, options);
  ASSERT_EQ(ca.num_operations(), cb.num_operations());
  for (std::size_t i = 0; i < ca.num_operations(); ++i) {
    EXPECT_EQ(ca.operations()[i].kind, cb.operations()[i].kind);
    EXPECT_EQ(ca.operations()[i].axis, cb.operations()[i].axis);
  }
}

TEST(MotivationalAnsatz, MatchesTrainingStructureAtDepth100) {
  const Circuit c = motivational_ansatz(2, 100);
  // Fig 1 setup: RX+RY per qubit per layer + CZ: 2 qubits -> 5 ops/layer.
  EXPECT_EQ(c.num_operations(), 500u);
  EXPECT_EQ(c.num_parameters(), 400u);
}

TEST(HardwareEfficientAnsatz, CustomAxesSequence) {
  const std::vector<gates::Axis> axes{gates::Axis::kZ, gates::Axis::kX,
                                      gates::Axis::kZ};
  const Circuit c = hardware_efficient_ansatz(2, 2, axes);
  // Per layer: 2 qubits * 3 rotations + 1 CZ = 7 ops.
  EXPECT_EQ(c.num_operations(), 14u);
  EXPECT_EQ(c.num_parameters(), 12u);
  EXPECT_EQ(c.operations()[0].axis, gates::Axis::kZ);
  EXPECT_EQ(c.operations()[1].axis, gates::Axis::kX);
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->params_per_layer, 6u);
}

TEST(HardwareEfficientAnsatz, RejectsEmptyAxes) {
  EXPECT_THROW((void)hardware_efficient_ansatz(2, 1, {}), InvalidArgument);
}

TEST(CzLadder, ConnectsNeighbors) {
  Circuit c(4);
  add_cz_ladder(c);
  ASSERT_EQ(c.num_operations(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.operations()[i].kind, OpKind::kCz);
    EXPECT_EQ(c.operations()[i].qubit0, i);
    EXPECT_EQ(c.operations()[i].qubit1, i + 1);
  }
}

TEST(CzLadder, NoOpOnSingleQubit) {
  Circuit c(1);
  add_cz_ladder(c);
  EXPECT_EQ(c.num_operations(), 0u);
}

}  // namespace
}  // namespace qbarren
