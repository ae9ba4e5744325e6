// Tests for the Grant-et-al identity-block ansatz and its initialization.
#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren {
namespace {

TEST(MirrorBlockAnsatz, StructureCounts) {
  Rng rng(1);
  const MirrorBlockAnsatz ansatz = mirror_block_ansatz(3, 2, 2, rng);
  // Per block: 2 forward layers (3 rot + 2 CZ each) + mirror of the same.
  EXPECT_EQ(ansatz.circuit.num_operations(), 2u * 2u * (2u * 5u));
  EXPECT_EQ(ansatz.circuit.num_parameters(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(ansatz.mirror_pairs.size(),
            ansatz.circuit.num_parameters() / 2);
  ASSERT_TRUE(ansatz.circuit.layer_shape().has_value());
  EXPECT_EQ(ansatz.circuit.layer_shape()->layers, 8u);
}

TEST(MirrorBlockAnsatz, ValidatesArguments) {
  Rng rng(1);
  EXPECT_THROW((void)mirror_block_ansatz(3, 0, 1, rng), InvalidArgument);
  EXPECT_THROW((void)mirror_block_ansatz(3, 1, 0, rng), InvalidArgument);
}

TEST(MirrorBlockAnsatz, PairsLinkMatchingAxes) {
  Rng rng(2);
  const MirrorBlockAnsatz ansatz = mirror_block_ansatz(4, 3, 1, rng);
  // Collect (param -> axis) for every rotation.
  std::vector<gates::Axis> axis_of(ansatz.circuit.num_parameters());
  for (const Operation& op : ansatz.circuit.operations()) {
    if (op.kind == OpKind::kRotation) {
      axis_of[op.param_index] = op.axis;
    }
  }
  for (const auto& [fwd, mir] : ansatz.mirror_pairs) {
    EXPECT_EQ(axis_of[fwd], axis_of[mir]);
  }
}

TEST(IdentityBlocks, InitialStateIsExactlyZero) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng structure_rng(seed);
    const MirrorBlockAnsatz ansatz =
        mirror_block_ansatz(4, 2, 3, structure_rng);
    Rng param_rng(seed + 100);
    const auto params = initialize_identity_blocks(ansatz, param_rng);

    const StateVector state = exec::simulate(ansatz.circuit, params);
    EXPECT_NEAR(state.probability(0), 1.0, 1e-10) << "seed " << seed;
  }
}

TEST(IdentityBlocks, ParamsPairedAsNegations) {
  Rng structure_rng(3);
  const MirrorBlockAnsatz ansatz = mirror_block_ansatz(2, 2, 1, structure_rng);
  Rng param_rng(4);
  const auto params = initialize_identity_blocks(ansatz, param_rng);
  for (const auto& [fwd, mir] : ansatz.mirror_pairs) {
    EXPECT_DOUBLE_EQ(params[mir], -params[fwd]);
    EXPECT_GE(params[fwd], 0.0);
    EXPECT_LT(params[fwd], 2.0 * M_PI);
  }
}

TEST(IdentityBlocks, ValidatesRange) {
  Rng structure_rng(3);
  const MirrorBlockAnsatz ansatz = mirror_block_ansatz(2, 1, 1, structure_rng);
  Rng rng(1);
  EXPECT_THROW((void)initialize_identity_blocks(ansatz, rng, 1.0, 1.0),
               InvalidArgument);
}

TEST(IdentityBlocks, GradientVarianceBeatsPlainRandomAtWidth) {
  // The §II-a mechanism: identity-block initialization keeps gradients
  // alive at widths where uniform-random deep circuits have lost them.
  // Measured with <X_0>: for the identity-learning cost the identity
  // point is the exact global minimum, where gradients are legitimately
  // zero — Grant et al.'s claim concerns generic observables, for which
  // |0...0> is not an eigenstate.
  const std::size_t qubits = 6;
  const std::size_t trials = 25;
  std::string x0(qubits, 'I');
  x0[0] = 'X';
  const PauliStringObservable obs(x0);
  const ParameterShiftEngine engine;

  std::vector<double> block_grads;
  std::vector<double> random_grads;
  const auto random_init = make_initializer("random");
  for (std::uint64_t t = 0; t < trials; ++t) {
    Rng structure_rng = Rng(50).child(t);
    const MirrorBlockAnsatz ansatz =
        mirror_block_ansatz(qubits, 2, 5, structure_rng);  // depth 20 layers
    Rng param_rng = Rng(60).child(t);
    const auto block_params =
        initialize_identity_blocks(ansatz, param_rng);
    block_grads.push_back(engine.partial(ansatz.circuit, obs, block_params,
                                         0));

    // Same circuit with fully random parameters.
    Rng rand_rng = Rng(70).child(t);
    const auto rand_params =
        random_init->initialize(ansatz.circuit, rand_rng);
    random_grads.push_back(
        engine.partial(ansatz.circuit, obs, rand_params, 0));
  }
  EXPECT_GT(sample_variance(block_grads),
            3.0 * sample_variance(random_grads));
}

TEST(IdentityBlocks, TrainableFromIdentityStart) {
  // Although the circuit starts at the cost minimum for the identity task
  // (cost 0), the structure is still generically trainable: perturb one
  // parameter and check the cost becomes sensitive (no saddle lock-in).
  Rng structure_rng(9);
  const MirrorBlockAnsatz ansatz = mirror_block_ansatz(3, 1, 2, structure_rng);
  Rng param_rng(10);
  auto params = initialize_identity_blocks(ansatz, param_rng);
  const GlobalZeroObservable obs(3);
  params[0] += 0.3;  // break one mirror pair
  const StateVector state = exec::simulate(ansatz.circuit, params);
  EXPECT_GT(obs.expectation(state), 1e-4);
}

}  // namespace
}  // namespace qbarren
