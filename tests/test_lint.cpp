// Tests for the static circuit/experiment linter (analysis/lint.hpp):
// one positive and one negative fixture per rule QB001-QB010, the
// preflight entry points, and the diagnostics JSON round-trip through
// the common JSON parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/analysis/lint.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"

namespace qbarren {
namespace {

std::size_t count_code(const Diagnostics& diagnostics,
                       const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

bool has_code(const Diagnostics& diagnostics, const std::string& code) {
  return count_code(diagnostics, code) > 0;
}

std::vector<std::size_t> all_qubits(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t q = 0; q < n; ++q) out[q] = q;
  return out;
}

// --- QB001: structurally dead parameters -----------------------------------

TEST(LintQB001, FlagsDeadSampledParameterAsError) {
  // Eq-2 circuit vs the Z0 Z1 observable: the last rotation sits on the
  // top qubit with only the trailing CZ ladder after it, outside the
  // observable's backward light cone.
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const Circuit circuit = variance_ansatz(8, rng, options);

  CircuitLintContext context;
  context.observable_qubits = {0, 1};
  context.differentiated_parameter = circuit.num_parameters() - 1;
  const Diagnostics diags = lint_circuit(circuit, context);

  ASSERT_TRUE(has_code(diags, "QB001"));
  const auto it = std::find_if(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.code == "QB001" && d.severity == Severity::kError;
      });
  ASSERT_NE(it, diags.end());
  EXPECT_NE(it->message.find("differentiated parameter"), std::string::npos);
  EXPECT_TRUE(has_errors(diags));
}

TEST(LintQB001, SilentForGlobalObservable) {
  // Every parameter is inside the light cone of an all-qubit observable.
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const Circuit circuit = variance_ansatz(8, rng, options);

  CircuitLintContext context;
  context.observable_qubits = all_qubits(8);
  context.differentiated_parameter = circuit.num_parameters() - 1;
  EXPECT_FALSE(has_code(lint_circuit(circuit, context), "QB001"));
}

TEST(LintQB001, DeadNonSampledParametersAreWarnings) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const Circuit circuit = variance_ansatz(8, rng, options);

  CircuitLintContext context;
  context.observable_qubits = {0, 1};
  context.differentiated_parameter = 0;  // first parameter: alive
  const Diagnostics diags = lint_circuit(circuit, context);
  EXPECT_TRUE(has_code(diags, "QB001"));
  EXPECT_FALSE(has_errors(diags));
}

// --- QB002: barren-plateau risk ---------------------------------------------

TEST(LintQB002, FlagsGlobalCostOnDeepWideHea) {
  // The paper's Eq-3 training configuration: n = 10, L = 5 under the
  // Eq 4 global cost.
  const Circuit circuit = training_ansatz(10, {});
  CircuitLintContext context;
  context.observable_qubits = all_qubits(10);
  context.global_cost = true;
  const Diagnostics diags = lint_circuit(circuit, context);
  ASSERT_TRUE(has_code(diags, "QB002"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB002"; });
  EXPECT_EQ(it->severity, Severity::kWarning);
  EXPECT_NE(it->message.find("closed-form 2-design model predicts"),
            std::string::npos);
  EXPECT_NE(it->message.find("light-cone width"), std::string::npos);
}

TEST(LintQB002, SilentForLocalCostAndForShallowCircuits) {
  const Circuit deep = training_ansatz(10, {});
  CircuitLintContext local;
  local.observable_qubits = all_qubits(10);
  local.global_cost = false;  // local cost covering every qubit
  EXPECT_FALSE(has_code(lint_circuit(deep, local), "QB002"));

  TrainingAnsatzOptions shallow_options;
  shallow_options.layers = 1;  // depth below the BP threshold
  const Circuit shallow = training_ansatz(10, shallow_options);
  CircuitLintContext global;
  global.observable_qubits = all_qubits(10);
  global.global_cost = true;
  EXPECT_FALSE(has_code(lint_circuit(shallow, global), "QB002"));
}

// --- QB011: closed-form predicted gradient variance --------------------------

TEST(LintQB011, ReportsModelSummaryWithoutEscalationAtPaperWidths) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 50;
  const Circuit circuit = variance_ansatz(8, rng, options);

  CircuitLintContext context;
  context.observable_qubits = all_qubits(8);
  context.global_cost = true;
  context.differentiated_parameter = circuit.num_parameters() - 1;
  const Diagnostics diags = lint_circuit(circuit, context);

  ASSERT_TRUE(has_code(diags, "QB011"));
  // q = 8 predicts ~4.6e-6, above the 1e-6 default floor: info only.
  EXPECT_FALSE(has_errors(diags));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB011"; });
  EXPECT_EQ(it->severity, Severity::kInfo);
  EXPECT_NE(it->message.find("predicted Var[dC/dtheta]"), std::string::npos);
}

TEST(LintQB011, EscalatesProvablyBarrenDifferentiatedParameter) {
  // q = 10 under the global cost predicts ~2.9e-7 for the deepest
  // parameter — below the 1e-6 floor, so the run is refused statically.
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 50;
  const Circuit circuit = variance_ansatz(10, rng, options);

  CircuitLintContext context;
  context.observable_qubits = all_qubits(10);
  context.global_cost = true;
  context.differentiated_parameter = circuit.num_parameters() - 1;
  const Diagnostics diags = lint_circuit(circuit, context);

  const auto it = std::find_if(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.code == "QB011" && d.severity == Severity::kError;
      });
  ASSERT_NE(it, diags.end());
  EXPECT_NE(it->message.find("provably barren"), std::string::npos);

  // Without a differentiated parameter (training preflight) the same
  // circuit stays info-only: escalation is tied to the sampled gradient.
  CircuitLintContext training = context;
  training.differentiated_parameter.reset();
  EXPECT_FALSE(has_errors(lint_circuit(circuit, training)));

  // Raising the floor admits the run again.
  LintOptions lenient;
  lenient.bp_variance_floor = 1e-9;
  EXPECT_FALSE(has_errors(lint_circuit(circuit, context, lenient)));
}

TEST(LintQB011, RefusesCustomGatesWithInfoNotANumber) {
  // The closed-form model only covers the paper's gate set; a custom gate
  // must surface as an applicability finding, never a wrong number.
  Circuit circuit(2);
  circuit.add_rotation(gates::Axis::kX, 0);
  circuit.add_custom_gate("id", ComplexMatrix::identity(2), 1);

  CircuitLintContext context;
  context.observable_qubits = {0, 1};
  context.differentiated_parameter = 0;
  const Diagnostics diags = lint_circuit(circuit, context);
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB011"; });
  ASSERT_NE(it, diags.end());
  EXPECT_EQ(it->severity, Severity::kInfo);
  EXPECT_NE(it->message.find("custom"), std::string::npos);
}

// --- QN120: predicted variance below the FP noise floor ----------------------

TEST(LintQN120, FlagsVarianceBelowAccumulatedRoundingError) {
  // At q = 44 the 2-design prediction (~c0 * 2^(-88) ~ 1e-27) sinks below
  // the compiled plan's accumulated rounding-error bound: a Monte-Carlo
  // estimate would measure FP noise, not signal. Static only — no 2^44
  // state is ever allocated.
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const Circuit circuit = variance_ansatz(44, rng, options);

  CircuitLintContext context;
  context.observable_qubits = all_qubits(44);
  context.global_cost = true;
  context.differentiated_parameter = circuit.num_parameters() - 1;
  const Diagnostics diags = lint_circuit(circuit, context);

  const auto it = std::find_if(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.code == "QN120" && d.severity == Severity::kError;
      });
  ASSERT_NE(it, diags.end());
  EXPECT_NE(it->message.find("noise"), std::string::npos);
}

TEST(LintQN120, SilentAtPaperWidths) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 50;
  const Circuit circuit = variance_ansatz(10, rng, options);

  CircuitLintContext context;
  context.observable_qubits = all_qubits(10);
  context.global_cost = true;
  context.differentiated_parameter = circuit.num_parameters() - 1;
  EXPECT_FALSE(has_code(lint_circuit(circuit, context), "QN120"));
}

// --- QB003: redundant adjacent same-axis rotations ---------------------------

TEST(LintQB003, FlagsAdjacentSameAxisRotations) {
  Circuit circuit(2);
  circuit.add_rotation(gates::Axis::kX, 0);
  circuit.add_rotation(gates::Axis::kX, 0);  // fuses with the previous
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_TRUE(has_code(diags, "QB003"));
}

TEST(LintQB003, SilentForDifferentAxesOrInterveningGates) {
  Circuit different_axes(2);
  different_axes.add_rotation(gates::Axis::kX, 0);
  different_axes.add_rotation(gates::Axis::kY, 0);
  EXPECT_FALSE(has_code(lint_circuit(different_axes), "QB003"));

  Circuit interleaved(2);
  interleaved.add_rotation(gates::Axis::kX, 0);
  interleaved.add_cz(0, 1);  // breaks the adjacency
  interleaved.add_rotation(gates::Axis::kX, 0);
  EXPECT_FALSE(has_code(lint_circuit(interleaved), "QB003"));
}

// --- QB004: qubits untouched by entanglers ----------------------------------

TEST(LintQB004, FlagsUnentangledQubit) {
  Circuit circuit(3);
  circuit.add_rotation(gates::Axis::kY, 2);
  circuit.add_cz(0, 1);  // q[2] never entangles
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_EQ(count_code(diags, "QB004"), 1u);
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB004"; });
  EXPECT_EQ(it->location, "q[2]");
}

TEST(LintQB004, SilentForFullLadderAndSingleQubit) {
  Circuit ladder(3);
  add_cz_ladder(ladder);
  EXPECT_FALSE(has_code(lint_circuit(ladder), "QB004"));

  Circuit single(1);
  single.add_rotation(gates::Axis::kX, 0);
  EXPECT_FALSE(has_code(lint_circuit(single), "QB004"));
}

// --- QB005: layer-shape / parameter-count mismatch ---------------------------

TEST(LintQB005, FlagsShapeThatDoesNotTileParameters) {
  Circuit circuit(2);
  for (int i = 0; i < 5; ++i) {
    circuit.add_rotation(gates::Axis::kX, 0);
    circuit.add_rotation(gates::Axis::kY, 0);  // avoid QB003 noise
  }
  circuit.set_layer_shape({2, 3});  // 6 != 10 parameters
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_TRUE(has_code(diags, "QB005"));
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB005"; });
  EXPECT_EQ(it->severity, Severity::kWarning);
}

TEST(LintQB005, ConsistentShapeIsSilentAndMissingShapeIsInfo) {
  // The ansatz builders record consistent shapes.
  const Circuit eq3 = training_ansatz(4, {});
  EXPECT_FALSE(has_code(lint_circuit(eq3), "QB005"));

  Circuit bare(1);
  bare.add_rotation(gates::Axis::kZ, 0);
  const Diagnostics diags = lint_circuit(bare);
  ASSERT_EQ(count_code(diags, "QB005"), 1u);
  EXPECT_EQ(diags.front().severity, Severity::kInfo);
}

// --- QB006: malformed custom gates -------------------------------------------

TEST(LintQB006, FlagsWrongDimensionsAndNonUnitarity) {
  Circuit circuit(2);
  circuit.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 0);
  ComplexMatrix not_unitary(2, 2);
  not_unitary(0, 0) = 2.0;  // scaling, not a unitary
  not_unitary(1, 1) = 1.0;
  circuit.add_custom_gate("not-unitary", not_unitary, 1);
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_EQ(count_code(diags, "QB006"), 2u);
  EXPECT_TRUE(has_errors(diags));
}

TEST(LintQB006, SilentForUnitaryCustomGates) {
  const double s = 1.0 / std::sqrt(2.0);
  ComplexMatrix hadamard(2, 2);
  hadamard(0, 0) = s;
  hadamard(0, 1) = s;
  hadamard(1, 0) = s;
  hadamard(1, 1) = -s;
  Circuit circuit(2);
  circuit.add_custom_gate("H", hadamard, 0);
  circuit.add_custom_two_qubit_gate("CZ'", ComplexMatrix::identity(4), 0, 1);
  EXPECT_FALSE(has_code(lint_circuit(circuit), "QB006"));
}

// --- QB008: adjacent cancelling gate pairs -----------------------------------

TEST(LintQB008, FlagsSelfInverseSingleQubitPair) {
  Circuit circuit(2);
  circuit.add_hadamard(0);
  circuit.add_hadamard(0);  // H H = I
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_EQ(count_code(diags, "QB008"), 1u);
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB008"; });
  EXPECT_EQ(it->severity, Severity::kWarning);
  EXPECT_NE(it->message.find("compose to the identity"), std::string::npos);
}

TEST(LintQB008, SeesThroughCommutingGatesOnOtherWires) {
  // The gate between the two H's touches only q[1], so it commutes past
  // both: the wire graph makes the H's adjacent up to commutation.
  Circuit circuit(2);
  circuit.add_hadamard(0);
  circuit.add_pauli_x(1);
  circuit.add_hadamard(0);
  EXPECT_EQ(count_code(lint_circuit(circuit), "QB008"), 1u);
}

TEST(LintQB008, FlagsTwoQubitPairsIncludingReversedOrder) {
  Circuit same_order(2);
  same_order.add_cnot(0, 1);
  same_order.add_cnot(0, 1);  // CNOT CNOT = I
  EXPECT_EQ(count_code(lint_circuit(same_order), "QB008"), 1u);

  // CZ is symmetric in its qubits, so cz(0,1) followed by cz(1,0) still
  // cancels: the rule must compare the matrices in a common qubit order.
  Circuit reversed(2);
  reversed.add_cz(0, 1);
  reversed.add_cz(1, 0);
  EXPECT_EQ(count_code(lint_circuit(reversed), "QB008"), 1u);
}

TEST(LintQB008, SilentForNonCancellingOrSeparatedPairs) {
  Circuit different(2);
  different.add_hadamard(0);
  different.add_pauli_x(0);  // X H != I
  EXPECT_FALSE(has_code(lint_circuit(different), "QB008"));

  // A gate on a shared wire between the pair breaks the adjacency.
  Circuit blocked(2);
  blocked.add_cnot(0, 1);
  blocked.add_pauli_z(1);
  blocked.add_cnot(0, 1);
  EXPECT_FALSE(has_code(lint_circuit(blocked), "QB008"));

  // Parameterized rotations have no constant matrix; QB003 owns them.
  Circuit parameterized(1);
  parameterized.add_rotation(gates::Axis::kX, 0);
  parameterized.add_rotation(gates::Axis::kX, 0);
  EXPECT_FALSE(has_code(lint_circuit(parameterized), "QB008"));
}

// --- QB009: per-parameter light-cone width report ----------------------------

TEST(LintQB009, ReportsWidthDistributionAndDifferentiatedParameter) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = 6;
  const Circuit circuit = variance_ansatz(8, rng, options);
  CircuitLintContext context;
  context.observable_qubits = {0, 1};
  context.differentiated_parameter = 0;  // first parameter: alive
  const Diagnostics diags = lint_circuit(circuit, context);
  ASSERT_EQ(count_code(diags, "QB009"), 2u);
  const auto summary =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB009"; });
  EXPECT_EQ(summary->severity, Severity::kInfo);
  EXPECT_NE(summary->message.find("light-cone widths"), std::string::npos);
  EXPECT_NE(summary->message.find("structurally dead"), std::string::npos);
  const auto detail = std::find_if(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.code == "QB009" && d.location == "param 0";
      });
  ASSERT_NE(detail, diags.end());
  EXPECT_NE(detail->message.find("differentiated parameter 0"),
            std::string::npos);
}

TEST(LintQB009, SilentWithoutObservableContext) {
  const Circuit circuit = training_ansatz(4, {});
  EXPECT_FALSE(has_code(lint_circuit(circuit), "QB009"));
}

// --- QB010: static plan cost estimate ----------------------------------------

TEST(LintQB010, ReportsCompiledPlanCost) {
  const Circuit circuit = training_ansatz(4, {});
  const Diagnostics diags = lint_circuit(circuit);
  ASSERT_EQ(count_code(diags, "QB010"), 1u);
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.code == "QB010"; });
  EXPECT_EQ(it->severity, Severity::kInfo);
  EXPECT_EQ(it->location, "plan");
  EXPECT_NE(it->message.find("flops"), std::string::npos);
  // 4 qubits, 5 layers: 40 rotations and 5 ladders of 3 CZs.
  EXPECT_NE(it->message.find("45 kernel op(s) (0 fused run(s), 5 CZ "
                             "ladder(s) covering 15 CZ gate(s))"),
            std::string::npos)
      << it->message;
}

TEST(LintQB010, SilentWhenTheCircuitCannotBeLowered) {
  // A malformed custom gate makes compile() refuse; QB006 owns the cause.
  Circuit circuit(1);
  circuit.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 0);
  const Diagnostics diags = lint_circuit(circuit);
  EXPECT_FALSE(has_code(diags, "QB010"));
  EXPECT_TRUE(has_code(diags, "QB006"));
}

// --- QB007: seed reuse across cells ------------------------------------------

TEST(LintQB007, FlagsReusedSeeds) {
  const Diagnostics diags = lint_seed_assignments(
      {{"rep=0", 7}, {"rep=1", 8}, {"rep=2", 7}});
  ASSERT_EQ(count_code(diags, "QB007"), 1u);
  EXPECT_NE(diags.front().message.find("rep=0"), std::string::npos);
  EXPECT_NE(diags.front().message.find("rep=2"), std::string::npos);
}

TEST(LintQB007, SilentForDistinctSeeds) {
  EXPECT_TRUE(
      lint_seed_assignments({{"rep=0", 1}, {"rep=1", 2}, {"rep=2", 3}})
          .empty());
}

// --- options: disabling rules, finding caps ----------------------------------

TEST(LintOptionsTest, DisabledCodesSuppressRules) {
  Circuit circuit(2);
  circuit.add_rotation(gates::Axis::kX, 0);
  circuit.add_rotation(gates::Axis::kX, 0);
  LintOptions options;
  options.disabled_codes = {"QB003", "QB004", "QB005", "QB010"};
  EXPECT_TRUE(lint_circuit(circuit, {}, options).empty());
}

TEST(LintOptionsTest, PerRuleFindingCapFoldsOverflow) {
  Circuit circuit(2);
  for (int i = 0; i < 10; ++i) {
    circuit.add_rotation(gates::Axis::kX, 0);
  }
  LintOptions options;
  options.disabled_codes = {"QB004", "QB005", "QB010"};
  options.max_findings_per_rule = 3;
  const Diagnostics diags = lint_circuit(circuit, {}, options);
  // 9 redundant pairs -> 3 reported + 1 summary.
  ASSERT_EQ(count_code(diags, "QB003"), 4u);
  EXPECT_NE(diags.back().message.find("6 more"), std::string::npos);
}

TEST(LintRules, RegistryCoversAllCodesInOrder) {
  const std::vector<std::string> expected = {
      "QB001", "QB002", "QB003", "QB004", "QB005", "QB006",
      "QB007", "QB008", "QB009", "QB010", "QB011", "QN120"};
  const auto& rules = lint_rules();
  ASSERT_EQ(rules.size(), expected.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].code, expected[i]);
  }
  EXPECT_EQ(lint_rule_table().data().size(), expected.size());
}

// --- preflight ---------------------------------------------------------------

TEST(Preflight, VarianceZzLastParameterIsAnError) {
  // The runner-reachable QB001 configuration: --cost zz with the paper's
  // default sampled parameter (last).
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 8};
  options.layers = 6;
  options.cost = CostKind::kPauliZZ;
  const Diagnostics diags = lint_variance_options(options);
  EXPECT_TRUE(has_code(diags, "QB001"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(Preflight, VarianceGlobalCostFlagsBpRiskOnly) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 8};
  options.layers = 50;
  const Diagnostics diags = lint_variance_options(options);
  EXPECT_FALSE(has_errors(diags));
  EXPECT_TRUE(has_code(diags, "QB002"));
}

TEST(Preflight, TrainingPaperConfigurationFlagsBpRisk) {
  const Diagnostics diags = lint_training_options({});
  EXPECT_TRUE(has_code(diags, "QB002"));
  EXPECT_FALSE(has_errors(diags));
}

TEST(Preflight, SweepDerivedSeedsAreDistinct) {
  TrainingSweepOptions options;
  options.repetitions = 16;
  EXPECT_FALSE(has_code(lint_sweep_options(options), "QB007"));
}

TEST(Preflight, EnforceModesGateOnErrors) {
  Diagnostics errors = {{Severity::kError, "QB001", "dead", "param 0"}};
  Diagnostics warnings = {{Severity::kWarning, "QB002", "bp risk", "cost"}};

  EXPECT_TRUE(enforce_preflight(errors, LintMode::kOff, "t"));
  EXPECT_TRUE(enforce_preflight(errors, LintMode::kWarn, "t"));
  EXPECT_TRUE(enforce_preflight(warnings, LintMode::kError, "t"));
  try {
    enforce_preflight(errors, LintMode::kError, "t");
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics().front().code, "QB001");
  }
}

TEST(Preflight, ModeNamesRoundTrip) {
  EXPECT_EQ(lint_mode_from_name("off"), LintMode::kOff);
  EXPECT_EQ(lint_mode_from_name("warn"), LintMode::kWarn);
  EXPECT_EQ(lint_mode_from_name("error"), LintMode::kError);
  EXPECT_THROW((void)lint_mode_from_name("loud"), NotFound);
}

// --- JSON round-trip ---------------------------------------------------------

TEST(DiagnosticJson, ReportRoundTripsThroughParser) {
  // Real findings -> JSON text -> parse_json -> diagnostics: the exact
  // path `qbarren lint --format=json` consumers take.
  Rng rng(3);
  VarianceAnsatzOptions ansatz_options;
  ansatz_options.layers = 6;
  const Circuit circuit = variance_ansatz(8, rng, ansatz_options);
  CircuitLintContext context;
  context.observable_qubits = {0, 1};
  context.differentiated_parameter = circuit.num_parameters() - 1;
  const Diagnostics original = lint_circuit(circuit, context);
  ASSERT_FALSE(original.empty());

  const std::string text = to_json(original).dump(2);
  const JsonValue parsed = parse_json(text);
  EXPECT_EQ(parsed.at("schema").as_string(), "qbarren.diagnostics.v1");
  EXPECT_EQ(parsed.at("counts").at("error").as_integer(),
            static_cast<std::int64_t>(
                count_severity(original, Severity::kError)));

  const Diagnostics round = diagnostics_from_json(parsed);
  ASSERT_EQ(round.size(), original.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    EXPECT_EQ(round[i].severity, original[i].severity);
    EXPECT_EQ(round[i].code, original[i].code);
    EXPECT_EQ(round[i].message, original[i].message);
    EXPECT_EQ(round[i].location, original[i].location);
  }
}

TEST(DiagnosticJson, FromJsonRejectsMalformedReports) {
  EXPECT_THROW((void)diagnostics_from_json(parse_json("{\"counts\": {}}")),
               InvalidArgument);
  EXPECT_THROW((void)diagnostic_from_json(parse_json(
                   "{\"severity\": \"fatal\", \"code\": \"QB001\","
                   " \"message\": \"m\", \"location\": \"\"}")),
               NotFound);
}

}  // namespace
}  // namespace qbarren
