// Rule-based static analysis of circuits and experiment configurations.
//
// The paper's central lesson is that barren plateaus are largely
// *predictable from circuit structure before any simulation runs*: a
// global cost on a deep hardware-efficient ansatz implies exponential
// gradient-variance decay (McClean et al. 2018; paper Eq 2/Eq 4), and
// light-cone analysis proves some parameter gradients are identically
// zero for local observables (bp/lightcone.hpp). The linter encodes those
// closed-form predictions — plus common configuration mistakes — as static
// rules that run in microseconds, so a misconfigured 200-circuit sweep is
// rejected at parse/build time instead of after hours of simulation.
//
// Rules (stable codes; severities are the defaults emitted):
//   QB001  error    structurally dead parameter(s): the observable's
//                   backward light cone misses the rotation, so its
//                   gradient is identically zero (the sampled-parameter
//                   variant is an error; a general dead-parameter census
//                   is a warning)
//   QB002  warning  global cost on a deep, wide HEA: predicted
//                   exponential variance decay (barren plateau)
//   QB003  warning  redundant adjacent same-axis rotations on one qubit
//                   (R_a(x)R_a(y) = R_a(x+y); same adjacency notion as
//                   circuit/optimize.hpp)
//   QB004  warning  qubit untouched by any entangling gate (product
//                   subsystem; the "HEA" is not entangling it)
//   QB005  warning  layer-shape metadata does not tile the parameter
//                   vector, so fan-based initializers (init/fan.hpp)
//                   compute fans from a wrong tensor shape
//                   (info: metadata absent, single-layer fallback)
//   QB006  error    custom gate matrix is dimension-inconsistent or
//                   non-unitary (linalg/checks.hpp)
//   QB007  warning  RNG seed reused across experiment cells: their
//                   samples are identical draws, not independent
//   QB008  warning  adjacent (up to commutation) constant gate pair
//                   composes to the identity: the pair cancels and only
//                   adds depth (adjacency from the dataflow wire graph,
//                   cancellation by a 2x2/4x4 matrix product check)
//   QB009  info     per-parameter backward light-cone width report: the
//                   effective register width each gradient sees, which
//                   predicts its variance scaling (dataflow fixpoint pass)
//   QB010  info     statically estimated flops/bytes per application of
//                   the circuit's compiled plan (plan_verify.hpp cost
//                   model; also recorded in the bench JSON)
//   QB011  info     closed-form per-parameter predicted gradient variance
//                   (predict.hpp, random baseline law) with regime
//                   classification; escalates to an **error** when the
//                   differentiated parameter is provably barren
//                   (predicted variance < bp_variance_floor). When the
//                   model refuses (custom gates), the refusal itself is
//                   the info finding — never a wrong number
//   QN120  error    predicted gradient variance below the compiled plan's
//                   accumulated FP rounding-error bound: a Monte-Carlo
//                   sample would be numerically indistinguishable from
//                   noise (predict.hpp noise-floor model)
//
// QB001/QB004/QB008/QB009 run on the shared dataflow framework
// (dataflow.hpp) rather than rule-private scans; QB002/QB011/QN120 share
// one VariancePredictor (predict.hpp) per lint pass. A pass builds each
// analysis once: one dataflow, one light cone of the declared support
// (QB001, QB009 and the predictor's baseline) and one compiled plan
// (QB010 and the predictor's noise floor).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/circuit/circuit.hpp"

namespace qbarren {

/// Tuning knobs shared by every lint entry point. Defaults match the
/// paper's regimes (QB002 fires from 6 qubits / depth 16 up, which covers
/// the paper's n = 6..10 deep-circuit configurations but not toy widths).
struct LintOptions {
  /// Rule codes to suppress entirely (e.g. {"QB003"}).
  std::vector<std::string> disabled_codes;

  /// QB002 fires when a global cost meets a circuit at least this wide...
  std::size_t bp_min_qubits = 6;

  /// ...and at least this deep (Circuit::depth(), entanglers included).
  std::size_t bp_min_depth = 16;

  /// Per-rule cap on repeated per-site findings; the overflow is folded
  /// into one summary finding so reports stay readable on 10k-op circuits.
  std::size_t max_findings_per_rule = 8;

  /// Unitarity tolerance for QB006 (max elementwise |u^H u - I|).
  double unitarity_tolerance = 1e-9;

  /// QB011 escalates to an error when the differentiated parameter's
  /// predicted gradient variance (closed-form model, random baseline law)
  /// falls below this floor: the run is provably barren before any
  /// simulation. The default sits between the model's q = 8 (~4.6e-6) and
  /// q = 10 (~2.9e-7) predictions for the paper's 50-layer global-cost
  /// grid, so the widths the paper trains cleanly are admitted and the
  /// provably-flat tail is refused. Raise, lower, or disable ("QB011")
  /// deliberately per run.
  double bp_variance_floor = 1e-6;

  [[nodiscard]] bool rule_enabled(const std::string& code) const;
};

/// What the linter knows about how a circuit will be *used*. All fields
/// optional: with none set only the usage-independent rules (QB003-QB006)
/// run.
struct CircuitLintContext {
  /// Support of the measured observable (e.g. {0, 1} for Z0 Z1, every
  /// qubit for the Eq 4 global cost). Empty = unknown; QB001/QB002 skip.
  std::vector<std::size_t> observable_qubits;

  /// True when the cost measures a joint property of all qubits at once
  /// (global projector, Eq 4) — the BP-prone case QB002 encodes. A local
  /// cost whose support happens to cover every qubit should leave this
  /// false (Cerezo et al. 2021: local costs decay polynomially).
  bool global_cost = false;

  /// The single parameter index an experiment differentiates (the
  /// variance experiment samples exactly one). When set and structurally
  /// dead, QB001 escalates to an error: every sample measures exactly 0.
  std::optional<std::size_t> differentiated_parameter;
};

/// Runs every applicable rule over one circuit. Findings are ordered by
/// rule code, then program position.
[[nodiscard]] Diagnostics lint_circuit(const Circuit& circuit,
                                       const CircuitLintContext& context = {},
                                       const LintOptions& options = {});

/// QB007 over labelled experiment cells: flags seeds assigned to more
/// than one cell (their "independent" samples would be identical draws).
[[nodiscard]] Diagnostics lint_seed_assignments(
    const std::vector<std::pair<std::string, std::uint64_t>>& cells,
    const LintOptions& options = {});

/// One row of the static rule registry (drives docs and `lint --rules`).
struct LintRuleInfo {
  const char* code;
  Severity severity;       ///< default severity of the rule's findings
  const char* summary;     ///< what the rule predicts
  const char* reference;   ///< paper section / related work it encodes
};

/// The registry of all rules, ordered by code.
[[nodiscard]] const std::vector<LintRuleInfo>& lint_rules();

/// Registry as a table: code, severity, what it predicts, source.
[[nodiscard]] Table lint_rule_table();

}  // namespace qbarren
