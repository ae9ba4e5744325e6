// Tests for the static plan verifier (analysis/plan_verify.hpp).
//
// Positive path: every paper ansatz at every paper width verifies clean —
// the exec-layer lowering is proven consistent, not assumed. Negative
// path: plans hand-corrupted in precisely one way through the test-only
// PlanMutationHook must trip exactly the QP1xx check that owns the broken
// invariant. Plus: the ScopedPlanVerification hook (counting, nesting,
// throwing, byte-identical execution) and the static resource estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/qasm_parser.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/plan_testing.hpp"

namespace qbarren {
namespace {

using exec::CompiledCircuit;
using exec::PlanMutationHook;

std::size_t count_code(const Diagnostics& diagnostics,
                       const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

bool has_code(const Diagnostics& diagnostics, const std::string& code) {
  return count_code(diagnostics, code) > 0;
}

std::shared_ptr<CompiledCircuit> corruptible_plan(const Circuit& circuit) {
  return PlanMutationHook::mutable_copy(
      *CompiledCircuit::compile(circuit));
}

/// A circuit whose plan exercises every kernel family: a fused run (H, S
/// on q0), a standalone constant (X on q1), CZ, CNOT, SWAP, a rotation,
/// and a controlled rotation.
Circuit every_kernel_circuit() {
  Circuit circuit(3);
  circuit.add_hadamard(0);
  circuit.add_s(0);  // fuses with the H
  circuit.add_pauli_x(1);
  circuit.add_cz(0, 1);
  circuit.add_cnot(1, 2);
  circuit.add_swap(0, 2);
  circuit.add_rotation(gates::Axis::kY, 1);
  circuit.add_controlled_rotation(gates::Axis::kZ, 0, 2);
  return circuit;
}

// --- positive path: the paper's circuits verify clean ------------------------

TEST(PlanVerify, PaperAnsaetzeVerifyCleanAtEveryPaperWidth) {
  for (const std::size_t n : {2u, 4u, 6u, 8u, 10u}) {
    Rng rng(3);
    VarianceAnsatzOptions eq2_options;
    eq2_options.layers = 6;
    const Circuit eq2 = variance_ansatz(n, rng, eq2_options);
    EXPECT_TRUE(verify_circuit_lowering(eq2).empty()) << "variance n=" << n;

    const Circuit eq3 = training_ansatz(n, {});
    EXPECT_TRUE(verify_circuit_lowering(eq3).empty()) << "training n=" << n;

    const Circuit fig1 = motivational_ansatz(n, 100);
    EXPECT_TRUE(verify_circuit_lowering(fig1).empty())
        << "motivational n=" << n;
  }
}

TEST(PlanVerify, EveryKernelFamilyVerifiesClean) {
  const Circuit circuit = every_kernel_circuit();
  const auto plan = CompiledCircuit::compile(circuit);
  EXPECT_GT(plan->stats().fused_runs, 0u);  // the fixture must exercise fusion
  EXPECT_TRUE(verify_plan(circuit, *plan).empty());
}

// --- QP100: shape mismatches -------------------------------------------------

TEST(PlanVerify, QP100FiresOnEveryShapeMismatch) {
  const Circuit circuit = training_ansatz(2, {});
  const auto plan = corruptible_plan(circuit);
  PlanMutationHook::num_qubits(*plan) += 1;
  PlanMutationHook::num_params(*plan) += 1;
  const Diagnostics diags = verify_plan(circuit, *plan);
  EXPECT_GE(count_code(diags, "QP100"), 2u);
  EXPECT_TRUE(has_errors(diags));
}

// --- QP101: pool unitarity ---------------------------------------------------

TEST(PlanVerify, QP101FiresOnNonUnitaryPoolEntry) {
  Circuit circuit(1);
  circuit.add_hadamard(0);
  const auto plan = corruptible_plan(circuit);
  PlanMutationHook::pool2(*plan)[0].m00 *= 2.0;  // no longer unitary
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP101"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(PlanVerify, QP101IsAWarningWhenOnlyCustomGatesReference) {
  // A non-unitary (but correctly sized) custom gate compiles — both
  // execution paths apply it verbatim, so the plan is a faithful lowering
  // and QB006 owns the modeling problem. The verifier must warn, not error.
  ComplexMatrix scaled = ComplexMatrix::identity(2);
  scaled(0, 0) = 2.0;
  Circuit circuit(1);
  circuit.add_custom_gate("scaled", scaled, 0);
  const auto plan = CompiledCircuit::compile(circuit);
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP101"));
  EXPECT_FALSE(has_errors(diags));
}

// --- QP102: forward / inverse pairing ----------------------------------------

TEST(PlanVerify, QP102FiresOnBrokenInverseEntry) {
  Circuit circuit(1);
  circuit.add_hadamard(0);
  const auto plan = corruptible_plan(circuit);
  PlanMutationHook::pool2_inverse(*plan)[0].m01 += 0.5;
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP102"));
  EXPECT_TRUE(has_errors(diags));
  // Only the inverse is broken: the forward pool still matches the source.
  EXPECT_FALSE(has_code(diags, "QP105"));
}

TEST(PlanVerify, QP102FiresOnPoolSizeMismatch) {
  Circuit circuit(2);
  circuit.add_swap(0, 1);
  const auto plan = corruptible_plan(circuit);
  PlanMutationHook::pool4_inverse(*plan).clear();
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP102"));
}

// --- QP103: fusion legality --------------------------------------------------

TEST(PlanVerify, QP103FiresWhenAFusedElementIsReplaced) {
  Circuit circuit(1);
  circuit.add_hadamard(0);
  circuit.add_s(0);
  const auto plan = corruptible_plan(circuit);
  auto& fused = PlanMutationHook::fused(*plan);
  ASSERT_EQ(fused.size(), 2u);
  fused[1] = fused[0];  // run now applies H twice instead of H then S
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP103"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP103"; });
  EXPECT_NE(it->message.find("deviates"), std::string::npos);
}

TEST(PlanVerify, QP103FiresOnDegenerateAndOutOfRangeRuns) {
  Circuit circuit(1);
  circuit.add_hadamard(0);
  circuit.add_s(0);

  const auto short_run = corruptible_plan(circuit);
  PlanMutationHook::plan_ops(*short_run)[0].fused_count = 1;
  EXPECT_TRUE(has_code(verify_plan(circuit, *short_run), "QP103"));

  const auto overflow = corruptible_plan(circuit);
  PlanMutationHook::plan_ops(*overflow)[0].fused_begin = 7;
  EXPECT_TRUE(has_code(verify_plan(circuit, *overflow), "QP103"));

  const auto bad_index = corruptible_plan(circuit);
  PlanMutationHook::fused(*bad_index)[0] = 99;  // pool2 has ~2 entries
  EXPECT_TRUE(has_code(verify_plan(circuit, *bad_index), "QP103"));
}

// --- QP104: binding table ----------------------------------------------------

TEST(PlanVerify, QP104FiresOnStaleSourceBinding) {
  const Circuit circuit = training_ansatz(2, {});
  const auto plan = corruptible_plan(circuit);
  auto& source_ops = PlanMutationHook::param_source_op(*plan);
  std::swap(source_ops[0], source_ops[1]);
  const Diagnostics diags = verify_plan(circuit, *plan);
  EXPECT_GE(count_code(diags, "QP104"), 2u);
  EXPECT_TRUE(has_errors(diags));
}

TEST(PlanVerify, QP104FiresOnStalePlanOpBinding) {
  const Circuit circuit = training_ansatz(2, {});
  const auto plan = corruptible_plan(circuit);
  auto& plan_ops = PlanMutationHook::param_plan_op(*plan);
  std::swap(plan_ops[0], plan_ops[1]);
  EXPECT_TRUE(has_code(verify_plan(circuit, *plan), "QP104"));
}

// --- QP105: kernel-op coverage -----------------------------------------------

TEST(PlanVerify, QP105FiresOnASwappedWire) {
  const Circuit circuit = training_ansatz(2, {});
  const auto plan = corruptible_plan(circuit);
  auto& ops = PlanMutationHook::plan_ops(*plan);
  const auto rotation = std::find_if(
      ops.begin(), ops.end(), [](const CompiledCircuit::PlanOp& op) {
        return op.kernel == CompiledCircuit::Kernel::kRotation;
      });
  ASSERT_NE(rotation, ops.end());
  rotation->qubit0 ^= 1u;  // rotate the wrong qubit
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP105"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP105"; });
  EXPECT_NE(it->message.find("wrong target qubit"), std::string::npos);
}

TEST(PlanVerify, QP105FiresOnReorderedOrDroppedOps) {
  const Circuit circuit = every_kernel_circuit();

  const auto reordered = corruptible_plan(circuit);
  auto& ops = PlanMutationHook::plan_ops(*reordered);
  ASSERT_GE(ops.size(), 2u);
  std::swap(ops[0], ops[1]);
  EXPECT_TRUE(has_code(verify_plan(circuit, *reordered), "QP105"));

  const auto dropped = corruptible_plan(circuit);
  PlanMutationHook::plan_ops(*dropped).pop_back();
  const Diagnostics diags = verify_plan(circuit, *dropped);
  ASSERT_TRUE(has_code(diags, "QP105"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP105"; });
  EXPECT_NE(it->message.find("never execute"), std::string::npos);
}

TEST(PlanVerify, QP105FiresOnACorruptedPooledMatrix) {
  Circuit circuit(1);
  circuit.add_pauli_x(0);
  const auto plan = corruptible_plan(circuit);
  // Replace Pauli-X with Pauli-Z: still unitary (QP101 stays silent), but
  // no longer the matrix the source op specifies.
  PlanMutationHook::pool2(*plan)[0] = gates::entries_of(gates::pauli_z());
  PlanMutationHook::pool2_inverse(*plan)[0] =
      gates::entries_of(gates::pauli_z());
  const Diagnostics diags = verify_plan(circuit, *plan);
  EXPECT_FALSE(has_code(diags, "QP101"));
  ASSERT_TRUE(has_code(diags, "QP105"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP105"; });
  EXPECT_NE(it->message.find("differs from the source op's matrix"),
            std::string::npos);
}

// --- QP106: custom-gate fallback reachability --------------------------------

TEST(PlanVerify, QP106ErrorWhenAPlanCoversAMalformedCustomGate) {
  // compile() refuses malformed custom gates, so build the plan from a
  // well-formed twin and verify it against the malformed circuit: the
  // "impossible plan" the check exists to reject.
  Circuit valid(2);
  valid.add_custom_two_qubit_gate("twin", ComplexMatrix::identity(4), 0, 1);
  Circuit malformed(2);
  malformed.add_custom_two_qubit_gate("twin", ComplexMatrix::identity(3), 0,
                                      1);
  const auto plan = CompiledCircuit::compile(valid);
  const Diagnostics diags = verify_plan(malformed, *plan);
  ASSERT_TRUE(has_code(diags, "QP106"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(PlanVerify, QP106InfoWhenLoweringIsRefused) {
  Circuit circuit(1);
  circuit.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 0);
  const Diagnostics diags = verify_circuit_lowering(circuit);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.front().code, "QP106");
  EXPECT_EQ(diags.front().severity, Severity::kInfo);
  EXPECT_NE(diags.front().message.find("executing the circuit throws"),
            std::string::npos);
  EXPECT_FALSE(has_errors(diags));
}

// --- finding cap -------------------------------------------------------------

TEST(PlanVerify, PerCodeCapFoldsOverflowIntoASummary) {
  // Hadamards alternating between two wires never fuse: 12 plan ops.
  Circuit circuit(2);
  for (int i = 0; i < 12; ++i) circuit.add_hadamard(i % 2);
  const auto plan = PlanMutationHook::mutable_copy(
      *CompiledCircuit::compile(circuit));
  ASSERT_EQ(plan->num_plan_ops(), 12u);
  for (auto& op : PlanMutationHook::plan_ops(*plan)) {
    op.qubit0 = 9;  // every op rotates a nonexistent wire
  }
  PlanVerifyOptions options;
  options.max_findings_per_code = 3;
  const Diagnostics diags = verify_plan(circuit, *plan, options);
  // 3 reported + 1 summary.
  ASSERT_EQ(count_code(diags, "QP105"), 4u);
  EXPECT_NE(diags.back().message.find("more QP105"), std::string::npos);
}

// --- PlanVerificationError ---------------------------------------------------

TEST(PlanVerificationErrorTest, CarriesDiagnosticsAndCountsErrors) {
  Diagnostics diagnostics = {
      {Severity::kError, "QP100", "shape", "num_qubits"},
      {Severity::kWarning, "QP101", "pool", "pool2[0]"}};
  const PlanVerificationError error("plan failed", std::move(diagnostics));
  EXPECT_NE(std::string(error.what()).find("1 error-severity"),
            std::string::npos);
  ASSERT_EQ(error.diagnostics().size(), 2u);
  EXPECT_EQ(error.diagnostics().front().code, "QP100");
}

// --- ScopedPlanVerification --------------------------------------------------

TEST(ScopedPlanVerificationTest, CountsFreshAttachmentsOnce) {
  const Circuit circuit = training_ansatz(2, {});
  ScopedPlanVerification guard;
  EXPECT_EQ(guard.plans_verified(), 0u);
  const auto first = exec::plan_for(circuit);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(guard.plans_verified(), 1u);
  EXPECT_EQ(guard.warnings(), 0u);
  // Cache hit: the already-attached plan must not re-verify.
  const auto second = exec::plan_for(circuit);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(guard.plans_verified(), 1u);
}

TEST(ScopedPlanVerificationTest, CountsWarningsWithoutThrowing) {
  ComplexMatrix scaled = ComplexMatrix::identity(2);
  scaled(0, 0) = 2.0;
  Circuit circuit(1);
  circuit.add_custom_gate("scaled", scaled, 0);
  ScopedPlanVerification guard;
  const auto plan = exec::plan_for(circuit);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(guard.plans_verified(), 1u);
  EXPECT_GE(guard.warnings(), 1u);
}

TEST(ScopedPlanVerificationTest, ThrowsOnErrorFindings) {
  // Impossible tolerances turn every pooled matrix into a finding: the
  // end-to-end path from plan_for through the attach hook to the thrown
  // PlanVerificationError, without needing a miscompiling compiler.
  Circuit circuit(1);
  circuit.add_hadamard(0);
  PlanVerifyOptions impossible;
  impossible.unitarity_tolerance = -1.0;
  ScopedPlanVerification guard(impossible);
  try {
    (void)exec::plan_for(circuit);
    FAIL() << "expected PlanVerificationError";
  } catch (const PlanVerificationError& error) {
    EXPECT_FALSE(error.diagnostics().empty());
    EXPECT_TRUE(has_code(error.diagnostics(), "QP101"));
  }
  EXPECT_EQ(guard.plans_verified(), 1u);
}

TEST(ScopedPlanVerificationTest, NestsAndRestoresThePreviousHook) {
  const Circuit outer_circuit = training_ansatz(2, {});
  const Circuit inner_circuit = training_ansatz(3, {});
  const Circuit after_circuit = training_ansatz(4, {});
  ScopedPlanVerification outer;
  {
    ScopedPlanVerification inner;
    (void)exec::plan_for(inner_circuit);
    EXPECT_EQ(inner.plans_verified(), 1u);
    EXPECT_EQ(outer.plans_verified(), 0u);  // inner shadows outer
  }
  // The inner guard restored the outer hook on destruction.
  (void)exec::plan_for(after_circuit);
  EXPECT_EQ(outer.plans_verified(), 1u);
  (void)outer_circuit;
}

TEST(ScopedPlanVerificationTest, VerifiedExecutionIsByteIdentical) {
  const Circuit circuit = every_kernel_circuit();
  const std::vector<double> params(circuit.num_parameters(), 0.3);
  (void)exec::plan_for(circuit);  // unverified compiled path
  const StateVector reference = exec::simulate(circuit, params);
  const Circuit fresh = every_kernel_circuit();
  ScopedPlanVerification guard;
  (void)exec::plan_for(fresh);  // verified on attach
  const StateVector verified = exec::simulate(fresh, params);
  EXPECT_GE(guard.plans_verified(), 1u);
  ASSERT_EQ(verified.amplitudes().size(), reference.amplitudes().size());
  for (std::size_t i = 0; i < reference.amplitudes().size(); ++i) {
    EXPECT_EQ(verified.amplitudes()[i], reference.amplitudes()[i]);
  }
}

// --- static resource estimate ------------------------------------------------

TEST(PlanResources, MatchesTheCostModelExactly) {
  // 2 qubits: amps = 4, pairs = 2, quads = 1.
  Circuit circuit(2);
  circuit.add_hadamard(0);       // kFixedSingle: 28*2 flops, 2*4*16 bytes
  circuit.add_rotation(gates::Axis::kY, 1);  // kRotation: 12*2 flops
  circuit.add_cz(0, 1);          // kCzGate: 2*1 flops, 2*1*16 bytes
  circuit.add_swap(0, 1);        // kFixedTwo: 120*1 flops, 2*4*16 bytes
  const auto plan = CompiledCircuit::compile(circuit);
  const PlanResourceEstimate estimate = estimate_plan_resources(*plan);
  EXPECT_EQ(estimate.plan_ops, 4u);
  EXPECT_EQ(estimate.fused_runs, 0u);
  EXPECT_DOUBLE_EQ(estimate.flops, 28.0 * 2 + 12.0 * 2 + 2.0 + 120.0);
  EXPECT_DOUBLE_EQ(estimate.bytes, 128.0 + 128.0 + 32.0 + 128.0);

  // 3 qubits: amps = 8, quads = 2. Three CZs on (0,1), (1,2), (0,1): the
  // first two are one kCzLadder, charged its gates' flops (2*2 each) but
  // one pass's bytes (2*8*16); the repeated pair stays a kCzGate.
  Circuit ladder(3);
  ladder.add_cz(0, 1);
  ladder.add_cz(2, 1);
  ladder.add_cz(0, 1);
  const PlanResourceEstimate l =
      estimate_plan_resources(*CompiledCircuit::compile(ladder));
  EXPECT_EQ(l.plan_ops, 2u);
  EXPECT_EQ(l.cz_ladders, 1u);
  EXPECT_EQ(l.cz_ladder_gates, 2u);
  EXPECT_DOUBLE_EQ(l.flops, 2 * 2.0 * 2 + 2.0 * 2);
  EXPECT_DOUBLE_EQ(l.bytes, 2.0 * 8 * 16 + 2.0 * 2 * 16);
}

TEST(PlanResources, ChargesEachKernelItsOwnFlops) {
  // 3 qubits: amps = 8, pairs = 4, quads = 2.
  for (const gates::Axis axis :
       {gates::Axis::kX, gates::Axis::kY, gates::Axis::kZ}) {
    Circuit rotation(3);
    rotation.add_rotation(axis, 2);  // specialised body: 12 per pair
    EXPECT_DOUBLE_EQ(
        estimate_plan_resources(*CompiledCircuit::compile(rotation)).flops,
        12.0 * 4);
    Circuit fixed(3);
    fixed.add_fixed_rotation(axis, 2, 0.3);  // generic 2x2: 28 per pair
    EXPECT_DOUBLE_EQ(
        estimate_plan_resources(*CompiledCircuit::compile(fixed)).flops,
        28.0 * 4);
    Circuit controlled(3);
    controlled.add_controlled_rotation(axis, 0, 2);  // generic, half the pairs
    EXPECT_DOUBLE_EQ(
        estimate_plan_resources(*CompiledCircuit::compile(controlled)).flops,
        28.0 * 2);
  }
}

TEST(PlanResources, FusionSavesBytesButNotFlops) {
  // amps = 2, pairs = 1. H then S on one wire fuse into one pass; a lone H
  // is one kFixedSingle: 28 flops, 2*2*16 bytes.
  Circuit circuit(1);
  circuit.add_hadamard(0);
  circuit.add_s(0);
  Circuit lone(1);
  lone.add_hadamard(0);
  const PlanResourceEstimate fused =
      estimate_plan_resources(*CompiledCircuit::compile(circuit));
  const PlanResourceEstimate single =
      estimate_plan_resources(*CompiledCircuit::compile(lone));
  EXPECT_DOUBLE_EQ(single.flops, 28.0);
  EXPECT_DOUBLE_EQ(single.bytes, 2.0 * 2 * 16);
  EXPECT_DOUBLE_EQ(fused.flops, 2 * single.flops);  // both gates' arithmetic
  EXPECT_DOUBLE_EQ(fused.bytes, single.bytes);      // in one pass
  EXPECT_EQ(fused.fused_runs, 1u);
  EXPECT_EQ(fused.plan_ops, 1u);
}

// --- CZ ladders (QP105 coverage, QP108 sign tables) --------------------------

/// A 6-qubit variance ansatz: every layer's CZs lower to one kCzLadder
/// with mask 0b11111.
Circuit ladder_circuit() {
  Rng rng(8);
  VarianceAnsatzOptions options;
  options.layers = 3;
  return variance_ansatz(6, rng, options);
}

CompiledCircuit::PlanOp& first_ladder(CompiledCircuit& plan) {
  auto& ops = PlanMutationHook::plan_ops(plan);
  const auto it = std::find_if(
      ops.begin(), ops.end(), [](const CompiledCircuit::PlanOp& op) {
        return op.kernel == CompiledCircuit::Kernel::kCzLadder;
      });
  EXPECT_NE(it, ops.end());
  return *it;
}

void set_mask(CompiledCircuit::CzLadder& ladder, std::uint64_t mask) {
  ladder.mask = mask;
  for (std::size_t w = 0; w < exec::kCzLadderSignWords; ++w) {
    ladder.signs[w] = exec::cz_ladder_sign_word(mask, w);
  }
}

TEST(PlanVerify, LadderPlansVerifyClean) {
  Rng rng(9);
  for (const Circuit& circuit :
       {ladder_circuit(), mirror_block_ansatz(7, 2, 2, rng).circuit}) {
    const auto plan = CompiledCircuit::compile(circuit);
    EXPECT_GT(plan->stats().cz_ladders, 0u);
    EXPECT_TRUE(verify_plan(circuit, *plan).empty());
  }
  Circuit ring(4);  // a ladder, then the closing pair as a kCzGate
  add_entangling_layer(ring, EntanglerGate::kCz, EntanglerTopology::kRing);
  ring.add_cz(3, 2);
  EXPECT_TRUE(verify_circuit_lowering(ring).empty());
}

TEST(PlanVerify, QP105FiresWhenALadderMaskDropsAPair) {
  const Circuit circuit = ladder_circuit();
  const auto plan = corruptible_plan(circuit);
  // Consistent sign table, so only the coverage check can see it.
  set_mask(PlanMutationHook::cz_ladders(*plan)[0], 0b11011);
  const Diagnostics diags = verify_plan(circuit, *plan);
  EXPECT_TRUE(has_code(diags, "QP105"));
  EXPECT_FALSE(has_code(diags, "QP108"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(PlanVerify, QP105FiresWhenALadderMaskAddsOrSwapsAPair) {
  const Circuit circuit = ladder_circuit();
  const auto extra = corruptible_plan(circuit);
  set_mask(PlanMutationHook::cz_ladders(*extra)[0], 0b111111);
  // Pair (5, 6) is outside the 6-qubit register too.
  const Diagnostics extra_diags = verify_plan(circuit, *extra);
  EXPECT_TRUE(has_code(extra_diags, "QP105"));
  EXPECT_TRUE(has_code(extra_diags, "QP108"));

  // Same number of pairs, one of them wrong: (2, 3) traded for (5, 6).
  const auto swapped = corruptible_plan(circuit);
  set_mask(PlanMutationHook::cz_ladders(*swapped)[0], 0b111011);
  EXPECT_TRUE(has_code(verify_plan(circuit, *swapped), "QP105"));
}

TEST(PlanVerify, QP105FiresWhenALadderCountIsOffByOne) {
  const Circuit circuit = ladder_circuit();
  for (const int delta : {-1, 1}) {
    const auto plan = corruptible_plan(circuit);
    CompiledCircuit::PlanOp& ladder = first_ladder(*plan);
    ladder.fused_count = static_cast<std::uint32_t>(
        static_cast<int>(ladder.fused_count) + delta);
    const Diagnostics diags = verify_plan(circuit, *plan);
    EXPECT_TRUE(has_code(diags, "QP105")) << delta;
    EXPECT_TRUE(has_errors(diags)) << delta;
  }
}

TEST(PlanVerify, QP108FiresWhenASignWordIsFlipped) {
  const Circuit circuit = ladder_circuit();
  const auto plan = corruptible_plan(circuit);
  PlanMutationHook::cz_ladders(*plan)[0].signs[37] ^= std::uint64_t{1} << 63;
  const Diagnostics diags = verify_plan(circuit, *plan);
  EXPECT_EQ(count_code(diags, "QP108"), 1u);
  EXPECT_FALSE(has_code(diags, "QP105"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(PlanVerify, QP105FiresWhenALadderCoversANonNeighbourCz) {
  Circuit circuit(4);
  circuit.add_cz(0, 1);
  circuit.add_cz(1, 3);  // not a neighbour pair: lowered as a kCzGate
  const auto plan = corruptible_plan(circuit);
  auto& ops = PlanMutationHook::plan_ops(*plan);
  ASSERT_EQ(ops.size(), 2u);
  // Claim one ladder over both, with a two-pair mask.
  auto& pool = PlanMutationHook::cz_ladders(*plan);
  pool.emplace_back();
  set_mask(pool.back(), 0b011);
  ops[0].kernel = CompiledCircuit::Kernel::kCzLadder;
  ops[0].matrix = 0;
  ops[0].fused_count = 2;
  ops.pop_back();
  const Diagnostics diags = verify_plan(circuit, *plan);
  ASSERT_TRUE(has_code(diags, "QP105"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP105"; });
  EXPECT_NE(it->message.find("neighbour pairs"), std::string::npos);
}

/// The plan of CZ(0,1), CZ(1,0) (two kCzGate ops, the pair repeated)
/// corrupted into one ladder over both with pairs `mask`.
std::shared_ptr<CompiledCircuit> repeated_pair_as_ladder(
    const Circuit& circuit, std::uint64_t mask) {
  const auto plan = corruptible_plan(circuit);
  auto& ops = PlanMutationHook::plan_ops(*plan);
  EXPECT_EQ(ops.size(), 2u);
  auto& pool = PlanMutationHook::cz_ladders(*plan);
  pool.emplace_back();
  set_mask(pool.back(), mask);
  ops[0].kernel = CompiledCircuit::Kernel::kCzLadder;
  ops[0].matrix = 0;
  ops[0].fused_count = 2;
  ops.pop_back();
  return plan;
}

std::string only_qp105(const Diagnostics& diags) {
  EXPECT_EQ(count_code(diags, "QP105"), 1u);
  EXPECT_EQ(diags.size(), 1u);
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QP105"; });
  return it == diags.end() ? "" : it->message;
}

TEST(PlanVerify, QP105FiresWhenALadderFoldsARepeatedPair) {
  Circuit circuit(3);
  circuit.add_cz(0, 1);
  circuit.add_cz(1, 0);
  // Each source pair is in the one-pair mask, but the ladder applies the
  // pair once where the source applies it twice.
  const std::string once =
      only_qp105(verify_plan(circuit, *repeated_pair_as_ladder(circuit, 1)));
  EXPECT_NE(once.find("names 1 pair(s)"), std::string::npos) << once;
  // The right pair count, each source pair in the mask, but CZ(1, 2)
  // comes from nowhere.
  const std::string extra = only_qp105(
      verify_plan(circuit, *repeated_pair_as_ladder(circuit, 0b011)));
  EXPECT_NE(extra.find("CZ(1, 2)"), std::string::npos) << extra;
}

TEST(PlanVerify, CzRunsFixtureKeepsNonLadderCzsAsGates) {
  const std::string path = std::string(QBARREN_FIXTURE_DIR) + "/cz_runs.qasm";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const Circuit circuit = parse_qasm(text.str()).circuit;
  const auto plan = CompiledCircuit::compile(circuit);
  // The ring's linear part and the (1,2), (2,3) run are ladders; the ring
  // closure, the repeated pair and the three interleaved CZs are not.
  std::size_t cz_gates = 0;
  for (const CompiledCircuit::PlanOp& op : plan->plan_ops()) {
    cz_gates += op.kernel == CompiledCircuit::Kernel::kCzGate ? 1 : 0;
  }
  EXPECT_EQ(plan->stats().cz_ladders, 2u);
  EXPECT_EQ(plan->stats().cz_ladder_source_ops, 5u);
  EXPECT_EQ(cz_gates, 5u);
  EXPECT_TRUE(verify_plan(circuit, *plan).empty());
}

}  // namespace
}  // namespace qbarren
