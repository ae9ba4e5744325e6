// Tests for the circuit dataflow framework (analysis/dataflow.hpp): the
// wire graph on hand-built circuits, the parameter dependence graph, the
// backward light-cone fixpoint cross-checked against bp/lightcone.hpp's
// single-pass analysis on every paper ansatz and on 63- to 130-qubit
// registers whose packed supports span several words, and a QB001/QB004
// regression over the checked-in QASM fixtures proving the dataflow-based
// lint rules report exactly what the rule-private scans used to.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qbarren/analysis/dataflow.hpp"
#include "qbarren/analysis/lint.hpp"
#include "qbarren/bp/lightcone.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/qasm_parser.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/rng.hpp"

namespace qbarren {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(QBARREN_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::size_t> all_qubits(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t q = 0; q < n; ++q) out[q] = q;
  return out;
}

// --- wire graph --------------------------------------------------------------

TEST(Dataflow, WireGraphLinksPredecessorsAndSuccessorsPerWire) {
  // op0: H q0 | op1: CNOT q0,q1 | op2: X q1 | op3: CZ q1,q2
  Circuit circuit(3);
  circuit.add_hadamard(0);
  circuit.add_cnot(0, 1);
  circuit.add_pauli_x(1);
  circuit.add_cz(1, 2);
  const CircuitDataflow flow(circuit);

  ASSERT_EQ(flow.num_ops(), 4u);
  EXPECT_EQ(flow.next_on_wire(0, 0), 1u);
  EXPECT_EQ(flow.next_on_wire(1, 0), CircuitDataflow::kNoOp);
  EXPECT_EQ(flow.next_on_wire(1, 1), 2u);
  EXPECT_EQ(flow.next_on_wire(3, 2), CircuitDataflow::kNoOp);

  EXPECT_EQ(flow.wire_count(0), 1u);
  EXPECT_EQ(flow.wire_count(1), 2u);
  EXPECT_EQ(flow.wires(1)[0], 0u);
  EXPECT_EQ(flow.wires(1)[1], 1u);

  EXPECT_TRUE(flow.entangled(0));
  EXPECT_TRUE(flow.entangled(1));
  EXPECT_TRUE(flow.entangled(2));
}

TEST(Dataflow, RejectsQueriesOffTheWire) {
  Circuit circuit(3);
  circuit.add_hadamard(0);
  const CircuitDataflow flow(circuit);
  // q[1] is not a wire of op 0: the query is meaningless, not kNoOp.
  EXPECT_THROW((void)flow.next_on_wire(0, 1), InvalidArgument);
  EXPECT_THROW((void)flow.wires(1), InvalidArgument);
  EXPECT_FALSE(flow.entangled(0));
}

// --- parameter dependence graph ----------------------------------------------

TEST(Dataflow, ParameterGraphMatchesBuilderConventions) {
  const Circuit circuit = training_ansatz(4, {});
  const CircuitDataflow flow(circuit);
  for (std::size_t p = 0; p < circuit.num_parameters(); ++p) {
    const std::size_t op = flow.op_for_parameter(p);
    ASSERT_NE(op, CircuitDataflow::kNoOp);
    EXPECT_EQ(circuit.operations()[op].param_index, p);
  }
}

// --- backward light cone -----------------------------------------------------

/// Independent reference for support_width: a reverse walk with one flag
/// per qubit, recording the support each op sees before applying its own
/// transfer.
std::vector<std::size_t> reference_support_widths(
    const Circuit& circuit, const std::vector<std::size_t>& observable) {
  std::vector<bool> support(circuit.num_qubits(), false);
  for (const std::size_t q : observable) support[q] = true;
  const std::vector<Operation>& ops = circuit.operations();
  std::vector<std::size_t> widths(ops.size());
  for (std::size_t k = ops.size(); k-- > 0;) {
    widths[k] = static_cast<std::size_t>(
        std::count(support.begin(), support.end(), true));
    const Operation& op = ops[k];
    if (is_two_qubit(op.kind) && (support[op.qubit0] || support[op.qubit1])) {
      support[op.qubit0] = true;
      support[op.qubit1] = true;
    }
  }
  return widths;
}

/// Checks every LightCone field against bp::analyze_light_cone (alive,
/// dead_count) and the reference walk (support_width, cone_width); returns
/// the dead count so callers can require dead parameters.
std::size_t expect_cone_matches_bp(const Circuit& circuit,
                                   const std::vector<std::size_t>& observable) {
  const CircuitDataflow flow(circuit);
  const CircuitDataflow::LightCone cone = flow.backward_light_cone(observable);
  const LightConeReport reference = analyze_light_cone(circuit, observable);
  const std::vector<std::size_t> widths =
      reference_support_widths(circuit, observable);
  const std::string where = std::to_string(circuit.num_qubits()) +
                            " qubits, support of " +
                            std::to_string(observable.size());

  EXPECT_EQ(cone.support_width, widths) << where;
  EXPECT_EQ(cone.alive, reference.alive) << where;
  EXPECT_EQ(cone.dead_count, reference.dead_count) << where;
  EXPECT_EQ(cone.sweeps, 2u) << where;  // one sweep, one confirming sweep
  for (std::size_t p = 0; p < circuit.num_parameters(); ++p) {
    const std::size_t op = flow.op_for_parameter(p);
    const std::size_t expected =
        reference.alive[p] ? widths[op] : std::size_t{0};
    EXPECT_EQ(cone.cone_width[p], expected) << where << ", parameter " << p;
  }
  return cone.dead_count;
}

TEST(DataflowLightCone, MatchesBpAnalysisOnEveryPaperAnsatz) {
  for (const std::size_t n : {2u, 4u, 6u, 8u}) {
    Rng rng(3);
    VarianceAnsatzOptions options;
    options.layers = 6;
    const Circuit eq2 = variance_ansatz(n, rng, options);
    expect_cone_matches_bp(eq2, {0, 1});
    expect_cone_matches_bp(eq2, all_qubits(n));
    expect_cone_matches_bp(eq2, {n - 1});

    const Circuit eq3 = training_ansatz(n, {});
    expect_cone_matches_bp(eq3, {0});
    expect_cone_matches_bp(eq3, all_qubits(n));
  }
  const Circuit fig1 = motivational_ansatz(6, 100);
  expect_cone_matches_bp(fig1, {0, 1});
  expect_cone_matches_bp(fig1, all_qubits(6));
}

TEST(DataflowLightCone, ConeWidthsGrowTowardTheFullRegister) {
  // Eq-2 circuit vs Z0 Z1: parameters near the end of the circuit see a
  // narrow cone (the support has only just started spreading backward),
  // early parameters see the saturated one.
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const std::size_t n = 8;
  const Circuit circuit = variance_ansatz(n, rng, options);
  const CircuitDataflow flow(circuit);
  const CircuitDataflow::LightCone cone = flow.backward_light_cone({0, 1});

  std::size_t max_width = 0;
  for (std::size_t p = 0; p < cone.alive.size(); ++p) {
    if (!cone.alive[p]) {
      EXPECT_EQ(cone.cone_width[p], 0u);
      continue;
    }
    EXPECT_GE(cone.cone_width[p], 2u);  // at least the observable support
    EXPECT_LE(cone.cone_width[p], n);
    max_width = std::max(max_width, cone.cone_width[p]);
  }
  EXPECT_EQ(max_width, n);  // six CZ-ladder layers saturate 8 qubits
  EXPECT_GT(cone.dead_count, 0u);  // the trailing rotations are dead
}

TEST(DataflowLightCone, RejectsEmptyOrOutOfRangeSupport) {
  const Circuit circuit = training_ansatz(2, {});
  const CircuitDataflow flow(circuit);
  EXPECT_THROW((void)flow.backward_light_cone({}), InvalidArgument);
  EXPECT_THROW((void)flow.backward_light_cone({5}), InvalidArgument);
}

// --- wide registers: multi-word supports -------------------------------------
//
// Supports are packed qubit bitsets, one 64-bit word per op up to 64
// qubits and ceil(q/64) words above. These circuits straddle the word
// boundaries; they are built and analysed, never simulated.

/// Rotations on every qubit around CZs that cross the 64-qubit word
/// boundaries (62-63-64-65 and 127-128-129): under a support at q[64] the
/// cone spreads across words, and rotations on the low qubits stay dead.
Circuit word_boundary_circuit(std::size_t n) {
  Circuit circuit(n);
  for (std::size_t q = 0; q < n; ++q) circuit.add_rotation(gates::Axis::kY, q);
  for (const std::size_t q : {62u, 63u, 64u, 127u, 128u}) {
    if (q + 1 < n) circuit.add_cz(q, q + 1);
  }
  for (std::size_t q = 0; q < n; ++q) circuit.add_rotation(gates::Axis::kX, q);
  return circuit;
}

TEST(DataflowLightCone, PackedSupportsMatchReferenceAcrossWordBoundaries) {
  for (const std::size_t n : {63u, 64u, 65u, 130u}) {
    Rng rng(11);
    VarianceAnsatzOptions eq2_options;
    eq2_options.layers = 3;
    const Circuit eq2 = variance_ansatz(n, rng, eq2_options);
    // Supports low in the CZ ladder leave the trailing rotations dead; the
    // last qubit's support sweeps the whole ladder backward in one layer.
    EXPECT_GT(expect_cone_matches_bp(eq2, {0, 1}), 0u) << n;
    EXPECT_GT(expect_cone_matches_bp(eq2, {n / 2}), 0u) << n;
    EXPECT_EQ(expect_cone_matches_bp(eq2, {n - 1}), 0u) << n;
    EXPECT_EQ(expect_cone_matches_bp(eq2, all_qubits(n)), 0u) << n;

    TrainingAnsatzOptions eq3_options;
    eq3_options.layers = 2;
    const Circuit eq3 = training_ansatz(n, eq3_options);
    expect_cone_matches_bp(eq3, {0});
    expect_cone_matches_bp(eq3, {n - 2, n - 1});
    expect_cone_matches_bp(eq3, all_qubits(n));

    const Circuit boundary = word_boundary_circuit(n);
    const std::size_t q64 = std::min<std::size_t>(64, n - 1);
    EXPECT_GT(expect_cone_matches_bp(boundary, {q64}), 0u) << n;
    expect_cone_matches_bp(boundary, all_qubits(n));
  }
}

// --- QASM fixture regression -------------------------------------------------
//
// The QB001/QB004 rules used to walk the operation list directly; they now
// query the dataflow framework. These regressions pin the observable
// behavior on the checked-in fixtures so the migration is provably
// diagnostic-preserving.

TEST(DataflowFixtures, CleanFixtureStaysCleanUnderDataflowRules) {
  const ParsedQasm parsed = parse_qasm(read_fixture("hea_clean.qasm"));
  CircuitLintContext context;
  context.observable_qubits = all_qubits(parsed.circuit.num_qubits());
  const Diagnostics diags = lint_circuit(parsed.circuit, context);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.code, "QB001") << d.message;
    EXPECT_NE(d.code, "QB004") << d.message;
    EXPECT_NE(d.code, "QB008") << d.message;
  }
}

TEST(DataflowFixtures, SloppyFixtureReportsTheKnownFindings) {
  const ParsedQasm parsed = parse_qasm(read_fixture("hea_sloppy.qasm"));
  const Diagnostics diags = lint_circuit(parsed.circuit);
  // q[3] is rotated but no entangler touches it: exactly one QB004, on
  // the same location the pre-dataflow rule reported.
  const auto qb004 =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB004"; });
  ASSERT_NE(qb004, diags.end());
  EXPECT_EQ(qb004->location, "q[3]");
  EXPECT_EQ(std::count_if(
                diags.begin(), diags.end(),
                [](const Diagnostic& d) { return d.code == "QB004"; }),
            1);
  // The back-to-back rx pair on q[0] is same-axis (QB003). Parsed
  // rotations are trainable, so QB008 (constant gates only) stays silent.
  EXPECT_NE(std::find_if(diags.begin(), diags.end(),
                         [](const Diagnostic& d) { return d.code == "QB003"; }),
            diags.end());
  EXPECT_EQ(std::find_if(diags.begin(), diags.end(),
                         [](const Diagnostic& d) { return d.code == "QB008"; }),
            diags.end());
}

TEST(DataflowFixtures, FixtureLightConesMatchBpAnalysis) {
  for (const char* name : {"hea_clean.qasm", "hea_sloppy.qasm"}) {
    const ParsedQasm parsed = parse_qasm(read_fixture(name));
    if (parsed.circuit.num_parameters() == 0) continue;
    expect_cone_matches_bp(parsed.circuit, {0, 1});
    expect_cone_matches_bp(parsed.circuit,
                           all_qubits(parsed.circuit.num_qubits()));
  }
}

}  // namespace
}  // namespace qbarren
