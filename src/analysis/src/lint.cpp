#include "qbarren/analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "qbarren/analysis/dataflow.hpp"
#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/analysis/predict.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

std::string param_location(std::size_t index) {
  std::string loc = "param ";
  loc += std::to_string(index);
  return loc;
}

std::string op_location(std::size_t index) {
  std::string loc = "op ";
  loc += std::to_string(index);
  return loc;
}

std::string qubit_location(std::size_t q) {
  std::string loc = "q[";
  loc += std::to_string(q);
  loc += "]";
  return loc;
}

/// Collects per-site findings for one rule, folding everything past
/// `max_findings_per_rule` into a single "... and N more" summary so a
/// pathological circuit cannot flood the report.
class RuleSink {
 public:
  RuleSink(Diagnostics& out, const LintOptions& options, Severity severity,
           std::string code)
      : out_(out),
        cap_(options.max_findings_per_rule),
        severity_(severity),
        code_(std::move(code)) {}

  void add(std::string message, std::string location) {
    ++total_;
    if (total_ <= cap_) {
      out_.push_back(
          {severity_, code_, std::move(message), std::move(location)});
    }
  }

  ~RuleSink() {
    if (total_ > cap_) {
      std::string message = "... and ";
      message += std::to_string(total_ - cap_);
      message += " more ";
      message += code_;
      message += " finding(s) suppressed (max_findings_per_rule = ";
      message += std::to_string(cap_);
      message += ")";
      out_.push_back({severity_, code_, std::move(message), ""});
    }
  }

  RuleSink(const RuleSink&) = delete;
  RuleSink& operator=(const RuleSink&) = delete;

 private:
  Diagnostics& out_;
  std::size_t cap_;
  std::size_t total_ = 0;
  Severity severity_;
  std::string code_;
};

// --- QB001: structurally dead parameters -----------------------------------

void rule_dead_parameters(const Circuit& circuit,
                          const std::optional<CircuitDataflow::LightCone>& cone,
                          const CircuitLintContext& context,
                          const LintOptions& options, Diagnostics& out) {
  if (!cone.has_value()) return;
  const CircuitDataflow::LightCone& report = *cone;
  if (report.dead_count == 0) return;

  // The parameter the experiment actually differentiates being dead is the
  // worst case: every gradient sample the run would collect is exactly 0,
  // so the measured "variance" is an artifact, not a barren-plateau signal.
  if (context.differentiated_parameter.has_value()) {
    const std::size_t k = *context.differentiated_parameter;
    if (k < report.alive.size() && !report.alive[k]) {
      const Operation& op = circuit.operation_for_parameter(k);
      std::ostringstream msg;
      msg << "differentiated parameter " << k << " (rotation on q["
          << op.qubit0 << "]) is outside the observable's backward light "
          << "cone: its gradient is identically zero, so every sample of "
          << "this experiment measures exactly 0";
      out.push_back({Severity::kError, "QB001", msg.str(), param_location(k)});
    }
  }

  RuleSink sink(out, options, Severity::kWarning, "QB001");
  for (std::size_t k = 0; k < report.alive.size(); ++k) {
    if (report.alive[k]) continue;
    if (context.differentiated_parameter == k) continue;  // reported above
    const Operation& op = circuit.operation_for_parameter(k);
    std::ostringstream msg;
    msg << "parameter " << k << " (rotation on q[" << op.qubit0
        << "]) has a structurally zero gradient for this observable "
        << "(dead: " << report.dead_count << "/" << report.alive.size()
        << " parameters)";
    sink.add(msg.str(), param_location(k));
  }
}

// --- QB002: barren-plateau risk (global cost x deep HEA) --------------------

/// The observable support the variance model analyzes: the declared
/// support, or (for a global cost with no explicit support) the full
/// register, which is what "global" means.
std::vector<std::size_t> model_support(const Circuit& circuit,
                                       const CircuitLintContext& context) {
  if (!context.observable_qubits.empty()) return context.observable_qubits;
  std::vector<std::size_t> all(circuit.num_qubits());
  for (std::size_t q = 0; q < all.size(); ++q) all[q] = q;
  return all;
}

/// Baseline prediction shared by QB002/QB011/QN120: the closed-form model
/// evaluated under the random U[0, 2*pi) law — the BP benchmark every
/// experiment's improvement statistic is measured against. nullopt when
/// the model refuses (the caller reports applicability() instead).
/// `cone` is the declared support's light cone, present whenever a support
/// is declared, so the model reuses it.
std::optional<VariancePrediction> baseline_prediction(
    const Circuit& circuit, const VariancePredictor& predictor,
    const CircuitLintContext& context,
    const std::optional<CircuitDataflow::LightCone>& cone) {
  if (!predictor.applicable()) return std::nullopt;
  const auto angles = angle_model_for("random", circuit);
  if (!angles.has_value()) return std::nullopt;
  const PredictedCost cost = context.global_cost
                                 ? PredictedCost::kGlobalProjector
                                 : (context.observable_qubits.size() <= 2
                                        ? PredictedCost::kPauli
                                        : PredictedCost::kLocalProjector);
  const std::vector<std::size_t> support = model_support(circuit, context);
  if (cone.has_value()) return predictor.predict(*angles, support, *cone, cost);
  return predictor.predict(*angles, support, cost);
}

void rule_bp_risk(const Circuit& circuit, const CircuitLintContext& context,
                  const LintOptions& options,
                  const VariancePredictor* predictor,
                  const std::optional<VariancePrediction>& baseline,
                  Diagnostics& out) {
  if (!context.global_cost) return;
  const std::size_t n = circuit.num_qubits();
  const std::size_t depth = circuit.depth();
  if (n < options.bp_min_qubits || depth < options.bp_min_depth) return;

  std::ostringstream msg;
  msg << "global cost on a " << n << "-qubit, depth-" << depth
      << " hardware-efficient circuit: ";
  if (baseline.has_value()) {
    // Closed-form 2-design model (predict.hpp), random-baseline law: the
    // same estimate `qbarren predict` reports, conformance-checked against
    // the Monte-Carlo pipeline in CI.
    const VariancePrediction& p = *baseline;
    double worst = 0.0;
    std::size_t worst_width = 0;
    bool any = false;
    for (const ParameterPrediction& pp : p.parameters) {
      if (!pp.alive) continue;
      if (!any || pp.variance < worst) {
        worst = pp.variance;
        worst_width = pp.cone_width;
        any = true;
      }
    }
    msg << "closed-form 2-design model predicts gradient variance ~" << worst
        << " for the deepest parameter (light-cone width " << worst_width
        << ", Haar limit c0*2^(-2w) under the " << p.angles.law
        << " baseline law; exponential decay with width, McClean et al. "
        << "2018)";
  } else {
    msg << "the circuit approximates a 2-design whose gradient variance "
        << "decays exponentially with width (McClean et al. 2018)";
    if (predictor != nullptr && !predictor->applicable()) {
      msg << "; the closed-form model refuses a numeric estimate here (see "
          << "QB011)";
    }
  }
  msg << ". Consider a local cost (Cerezo et al. 2021) or a "
      << "variance-preserving initializer";
  out.push_back({Severity::kWarning, "QB002", msg.str(), "cost"});
}

// --- QB003: redundant adjacent same-axis rotations --------------------------

bool is_rotation_kind(OpKind kind) {
  return kind == OpKind::kRotation || kind == OpKind::kFixedRotation;
}

void rule_redundant_rotations(const Circuit& circuit,
                              const LintOptions& options, Diagnostics& out) {
  RuleSink sink(out, options, Severity::kWarning, "QB003");
  // prev_rot[q] = index of the last op touching q, if it was a single-qubit
  // rotation; any intervening op on q (of any kind) resets the slot. This
  // is the same adjacency notion fuse_rotations() in circuit/optimize.hpp
  // uses, so every finding is mechanically fixable by that pass.
  std::vector<std::optional<std::size_t>> prev_rot(circuit.num_qubits());
  const std::vector<Operation>& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (is_two_qubit(op.kind) || op.kind == OpKind::kControlledRotation) {
      prev_rot[op.qubit0].reset();
      prev_rot[op.qubit1].reset();
      continue;
    }
    if (!is_rotation_kind(op.kind)) {
      prev_rot[op.qubit0].reset();
      continue;
    }
    if (prev_rot[op.qubit0].has_value()) {
      const Operation& prev = ops[*prev_rot[op.qubit0]];
      if (prev.axis == op.axis) {
        std::ostringstream msg;
        msg << "adjacent " << gates::axis_name(op.axis) << " rotations on q["
            << op.qubit0 << "] (ops " << *prev_rot[op.qubit0] << ", " << i
            << ") compose to one rotation; the pair adds depth and an "
            << "over-parameterized direction (fuse_rotations() merges them)";
        sink.add(msg.str(), op_location(i));
      }
    }
    prev_rot[op.qubit0] = i;
  }
}

// --- QB004: qubits no entangler touches -------------------------------------

void rule_unentangled_qubits(const Circuit& circuit,
                             const CircuitDataflow& flow,
                             const LintOptions& options, Diagnostics& out) {
  if (circuit.num_qubits() < 2) return;  // nothing to entangle with
  RuleSink sink(out, options, Severity::kWarning, "QB004");
  for (std::size_t q = 0; q < circuit.num_qubits(); ++q) {
    if (flow.entangled(q)) continue;
    std::ostringstream msg;
    msg << "q[" << q << "] is never touched by an entangling gate: the "
        << "state stays a product across this cut, so the circuit cannot "
        << "be the hardware-efficient ansatz the experiment assumes";
    sink.add(msg.str(), qubit_location(q));
  }
}

// --- QB005: layer-shape / parameter-count mismatch --------------------------

void rule_layer_shape(const Circuit& circuit, Diagnostics& out) {
  const std::optional<LayerShape>& shape = circuit.layer_shape();
  if (!shape.has_value()) {
    if (circuit.num_parameters() > 0) {
      out.push_back(
          {Severity::kInfo, "QB005",
           "circuit carries no layer-shape metadata; fan-based "
           "initializers fall back to a single (1 x num_parameters) layer",
           "layer_shape"});
    }
    return;
  }
  const std::size_t product = shape->layers * shape->params_per_layer;
  if (product == circuit.num_parameters() && product > 0) return;
  std::ostringstream msg;
  msg << "layer shape (" << shape->layers << " x " << shape->params_per_layer
      << " = " << product << ") does not tile the parameter vector ("
      << circuit.num_parameters() << " parameters): fan-based initializers "
      << "(init/fan.hpp) would compute fan-in/fan-out from a wrong tensor "
      << "shape";
  out.push_back({Severity::kWarning, "QB005", msg.str(), "layer_shape"});
}

// --- QB006: malformed custom gates ------------------------------------------

void rule_custom_gates(const Circuit& circuit, const LintOptions& options,
                       Diagnostics& out) {
  if (circuit.custom_gates().empty()) return;
  RuleSink sink(out, options, Severity::kError, "QB006");
  const std::vector<Operation>& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (op.kind != OpKind::kCustomSingle && op.kind != OpKind::kCustomTwo) {
      continue;
    }
    const CustomGate& gate = circuit.custom_gate(op);
    const std::size_t dim = op.kind == OpKind::kCustomSingle ? 2 : 4;
    if (gate.matrix.rows() != dim || gate.matrix.cols() != dim) {
      std::ostringstream msg;
      msg << "custom gate '" << gate.name << "' is " << gate.matrix.rows()
          << "x" << gate.matrix.cols() << " but its "
          << (dim == 2 ? "single" : "two") << "-qubit use needs " << dim << "x"
          << dim << "; apply() would throw at execution";
      sink.add(msg.str(), op_location(i));
      continue;
    }
    if (!is_unitary(gate.matrix, options.unitarity_tolerance)) {
      std::ostringstream msg;
      msg << "custom gate '" << gate.name << "' is not unitary (max |u^H u"
          << " - I| exceeds " << options.unitarity_tolerance
          << "): simulation would silently denormalize the state";
      sink.add(msg.str(), op_location(i));
    }
  }
}

// --- QB008: adjacent cancelling gate pairs ----------------------------------

/// True when the (constant) op's matrix is available for the cancellation
/// product: non-parameterized, and for custom gates, correctly sized.
bool has_constant_matrix(const Circuit& circuit, const Operation& op) {
  if (is_parameterized(op.kind)) return false;
  if (op.kind == OpKind::kCustomSingle || op.kind == OpKind::kCustomTwo) {
    const std::size_t dim = op.kind == OpKind::kCustomSingle ? 2 : 4;
    const ComplexMatrix& m = circuit.custom_gate(op).matrix;
    return m.rows() == dim && m.cols() == dim;
  }
  return true;
}

/// True when m ≈ c * I with |c| = 1 (a global phase, physically the
/// identity).
bool is_scalar_identity(const ComplexMatrix& m, double tol) {
  const Complex c = m(0, 0);
  if (std::abs(std::abs(c) - 1.0) > tol) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t col = 0; col < m.cols(); ++col) {
      const Complex expected = r == col ? c : Complex{};
      if (std::abs(m(r, col) - expected) > tol) return false;
    }
  }
  return true;
}

void rule_cancelling_pairs(const Circuit& circuit, const CircuitDataflow& flow,
                           const LintOptions& options, Diagnostics& out) {
  RuleSink sink(out, options, Severity::kWarning, "QB008");
  const std::vector<Operation>& ops = circuit.operations();
  const double tol = options.unitarity_tolerance;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (!has_constant_matrix(circuit, op)) continue;

    if (!is_two_qubit(op.kind)) {
      // Wire-graph successor = next op touching this qubit; everything in
      // between acts on other qubits and commutes past both.
      const std::size_t j = flow.next_on_wire(i, op.qubit0);
      if (j == CircuitDataflow::kNoOp) continue;
      const Operation& next = ops[j];
      if (is_two_qubit(next.kind) || !has_constant_matrix(circuit, next)) {
        continue;
      }
      const ComplexMatrix product =
          circuit.operation_matrix(j, {}) * circuit.operation_matrix(i, {});
      if (!is_scalar_identity(product, tol)) continue;
      std::ostringstream msg;
      msg << "ops " << i << " and " << j << " on q[" << op.qubit0
          << "] are adjacent up to commutation and compose to the identity "
          << "(up to global phase): the pair cancels and only adds depth";
      sink.add(msg.str(), op_location(i));
      continue;
    }

    // Two-qubit pair: the next op on BOTH wires must be the same op, i.e.
    // nothing in between touches either qubit.
    const std::size_t j = flow.next_on_wire(i, op.qubit0);
    if (j == CircuitDataflow::kNoOp ||
        j != flow.next_on_wire(i, op.qubit1)) {
      continue;
    }
    const Operation& next = ops[j];
    if (!is_two_qubit(next.kind) || !has_constant_matrix(circuit, next)) {
      continue;
    }
    ComplexMatrix next_matrix = circuit.operation_matrix(j, {});
    if (next.qubit0 == op.qubit1 && next.qubit1 == op.qubit0) {
      // Same pair in the opposite order: express next's matrix in op's
      // qubit order by conjugating with SWAP.
      next_matrix = gates::swap() * next_matrix * gates::swap();
    } else if (next.qubit0 != op.qubit0 || next.qubit1 != op.qubit1) {
      continue;  // unreachable: sharing both wires means the same pair
    }
    const ComplexMatrix product =
        next_matrix * circuit.operation_matrix(i, {});
    if (!is_scalar_identity(product, tol)) continue;
    std::ostringstream msg;
    msg << "ops " << i << " and " << j << " on (q[" << op.qubit0 << "], q["
        << op.qubit1 << "]) are adjacent up to commutation and compose to "
        << "the identity (up to global phase): the pair cancels and only "
        << "adds depth";
    sink.add(msg.str(), op_location(i));
  }
}

// --- QB009: per-parameter light-cone width report ---------------------------

void rule_cone_widths(const Circuit& circuit,
                      const std::optional<CircuitDataflow::LightCone>& report,
                      const CircuitLintContext& context, Diagnostics& out) {
  if (!report.has_value()) return;
  const CircuitDataflow::LightCone& cone = *report;
  std::vector<std::size_t> widths;
  widths.reserve(cone.alive.size());
  for (std::size_t p = 0; p < cone.alive.size(); ++p) {
    if (cone.alive[p]) widths.push_back(cone.cone_width[p]);
  }
  if (widths.empty()) return;  // all dead: QB001 already reports that
  std::sort(widths.begin(), widths.end());
  std::ostringstream msg;
  msg << "backward light-cone widths across " << cone.alive.size()
      << " parameter(s): min " << widths.front() << ", median "
      << widths[widths.size() / 2] << ", max " << widths.back() << " of "
      << circuit.num_qubits() << " qubit(s)";
  if (cone.dead_count > 0) {
    msg << " (" << cone.dead_count << " structurally dead)";
  }
  msg << "; a gradient's variance scales with the effective register its "
      << "parameter sees, not the full width (McClean et al. 2018)";
  out.push_back({Severity::kInfo, "QB009", msg.str(), "light-cone"});

  if (context.differentiated_parameter.has_value()) {
    const std::size_t k = *context.differentiated_parameter;
    if (k < cone.alive.size() && cone.alive[k]) {
      std::ostringstream detail;
      detail << "differentiated parameter " << k
             << " sees a backward light cone of " << cone.cone_width[k]
             << " of " << circuit.num_qubits() << " qubit(s)";
      out.push_back(
          {Severity::kInfo, "QB009", detail.str(), param_location(k)});
    }
  }
}

// --- QB010: static plan cost estimate ---------------------------------------

void rule_plan_cost(const Circuit& circuit,
                    const exec::CompiledCircuit* plan, Diagnostics& out) {
  // Unlowerable (malformed custom gate): QB006 reports the cause.
  if (plan == nullptr) return;
  const PlanResourceEstimate estimate = estimate_plan_resources(*plan);
  std::ostringstream msg;
  msg << "compiled plan: " << estimate.plan_ops << " kernel op(s) ("
      << estimate.fused_runs << " fused run(s), " << estimate.cz_ladders
      << " CZ ladder(s) covering " << estimate.cz_ladder_gates
      << " CZ gate(s)) on " << circuit.num_qubits()
      << " qubit(s); estimated " << estimate.flops << " flops and "
      << estimate.bytes << " bytes moved per application";
  out.push_back({Severity::kInfo, "QB010", msg.str(), "plan"});
}

// --- QB011: closed-form predicted gradient variance -------------------------

void rule_predicted_variance(const CircuitLintContext& context,
                             const LintOptions& options,
                             const VariancePredictor& predictor,
                             const std::optional<VariancePrediction>& baseline,
                             Diagnostics& out) {
  if (!predictor.applicable()) {
    // The model refuses (custom gates, no parameters): surface its own
    // info diagnostics instead of a wrong number.
    for (const Diagnostic& d : predictor.applicability()) {
      out.push_back(d);
    }
    return;
  }
  if (!baseline.has_value()) return;
  const VariancePrediction& p = *baseline;

  std::vector<double> alive;
  std::size_t near_identity = 0;
  std::size_t transition = 0;
  std::size_t two_design = 0;
  for (const ParameterPrediction& pp : p.parameters) {
    if (!pp.alive) continue;
    alive.push_back(pp.variance);
    switch (pp.regime) {
      case VarianceRegime::kNearIdentity:
        ++near_identity;
        break;
      case VarianceRegime::kTransition:
        ++transition;
        break;
      case VarianceRegime::kTwoDesign:
        ++two_design;
        break;
      case VarianceRegime::kDead:
        break;
    }
  }
  if (alive.empty()) return;  // all dead: QB001 reports that
  std::sort(alive.begin(), alive.end());
  std::ostringstream msg;
  msg << "closed-form 2-design variance model (random-baseline law "
      << p.angles.law << "): predicted Var[dC/dtheta] min " << alive.front()
      << ", median " << alive[alive.size() / 2] << ", max " << alive.back()
      << " across " << alive.size() << " alive parameter(s); regimes: "
      << near_identity << " near-identity, " << transition << " transition, "
      << two_design << " 2-design; assumptions: " << p.assumptions.back()
      << "; validated against the Monte-Carlo Fig 5a pipeline "
      << "(predict_conformance)";
  out.push_back({Severity::kInfo, "QB011", msg.str(), "variance-model"});

  if (!context.differentiated_parameter.has_value()) return;
  const std::size_t k = *context.differentiated_parameter;
  if (k >= p.parameters.size() || !p.parameters[k].alive) return;
  const ParameterPrediction& pk = p.parameters[k];
  {
    std::ostringstream detail;
    detail << "differentiated parameter " << k << ": predicted variance "
           << pk.variance << " (" << variance_regime_name(pk.regime)
           << " regime, light-cone width " << pk.cone_width << ")";
    out.push_back({Severity::kInfo, "QB011", detail.str(), param_location(k)});
  }
  if (pk.variance < options.bp_variance_floor) {
    std::ostringstream err;
    err << "differentiated parameter " << k
        << " is provably barren under the random baseline: predicted "
        << "gradient variance " << pk.variance << " < floor "
        << options.bp_variance_floor
        << " (bp_variance_floor), so the improvement-vs-random statistic "
        << "this experiment exists to compute would be dominated by "
        << "sampling noise. Use fewer qubits or a local cost, or raise "
        << "bp_variance_floor / disable QB011 to force the run";
    out.push_back({Severity::kError, "QB011", err.str(), param_location(k)});
  }
}

// --- QN120: predicted variance below the FP noise floor ---------------------

void rule_noise_floor(const CircuitLintContext& context,
                      const std::optional<VariancePrediction>& baseline,
                      Diagnostics& out) {
  if (!baseline.has_value()) return;
  if (!context.differentiated_parameter.has_value()) return;
  const VariancePrediction& p = *baseline;
  const std::size_t k = *context.differentiated_parameter;
  if (k >= p.parameters.size() || !p.parameters[k].alive) return;
  const ParameterPrediction& pk = p.parameters[k];
  if (pk.variance >= p.noise_floor) return;
  std::ostringstream msg;
  msg << "predicted gradient variance " << pk.variance
      << " of differentiated parameter " << k
      << " sits below the compiled plan's accumulated rounding-error bound "
      << "(noise floor " << p.noise_floor << " from " << p.plan_ops
      << " kernel op(s)): a simulated gradient sample at this scale is "
      << "numerically indistinguishable from floating-point noise, so the "
      << "Monte-Carlo result would be untrustworthy";
  out.push_back({Severity::kError, "QN120", msg.str(), param_location(k)});
}

}  // namespace

bool LintOptions::rule_enabled(const std::string& code) const {
  return std::find(disabled_codes.begin(), disabled_codes.end(), code) ==
         disabled_codes.end();
}

Diagnostics lint_circuit(const Circuit& circuit,
                         const CircuitLintContext& context,
                         const LintOptions& options) {
  for (std::size_t q : context.observable_qubits) {
    QBARREN_REQUIRE(q < circuit.num_qubits(),
                    "lint_circuit: observable qubit out of range");
  }
  if (context.differentiated_parameter.has_value()) {
    QBARREN_REQUIRE(*context.differentiated_parameter <
                        circuit.num_parameters(),
                    "lint_circuit: differentiated_parameter out of range");
  }
  // One dataflow build (wire graph + parameter dependence) shared by every
  // structural rule and the variance model.
  const CircuitDataflow flow(circuit);

  // The variance-model rules share one predictor, built only when some
  // rule will consume it.
  const bool want_model =
      circuit.num_parameters() > 0 &&
      (!context.observable_qubits.empty() || context.global_cost) &&
      (options.rule_enabled("QB002") || options.rule_enabled("QB011") ||
       options.rule_enabled("QN120"));

  // One backward light cone of the declared support, shared by QB001,
  // QB009 and the model's baseline prediction.
  std::optional<CircuitDataflow::LightCone> cone;
  if (!context.observable_qubits.empty() && circuit.num_parameters() > 0 &&
      (options.rule_enabled("QB001") || options.rule_enabled("QB009") ||
       want_model)) {
    cone = flow.backward_light_cone(context.observable_qubits);
  }

  // One compiled plan, shared by QB010 and the model's noise floor (which
  // reads it only for circuits without custom gates).
  std::shared_ptr<const exec::CompiledCircuit> plan;
  if (options.rule_enabled("QB010") ||
      (want_model && circuit.custom_gates().empty())) {
    try {
      plan = exec::CompiledCircuit::compile(circuit);
    } catch (const InvalidArgument&) {
      // QB010 stays silent and the noise floor counts raw operations.
    }
  }

  std::optional<VariancePredictor> predictor;
  std::optional<VariancePrediction> baseline;
  if (want_model) {
    predictor.emplace(flow, plan.get());
    baseline = baseline_prediction(circuit, *predictor, context, cone);
  }

  Diagnostics out;
  if (options.rule_enabled("QB001")) {
    rule_dead_parameters(circuit, cone, context, options, out);
  }
  if (options.rule_enabled("QB002")) {
    rule_bp_risk(circuit, context, options,
                 predictor.has_value() ? &*predictor : nullptr, baseline, out);
  }
  if (options.rule_enabled("QB003")) {
    rule_redundant_rotations(circuit, options, out);
  }
  if (options.rule_enabled("QB004")) {
    rule_unentangled_qubits(circuit, flow, options, out);
  }
  if (options.rule_enabled("QB005")) {
    rule_layer_shape(circuit, out);
  }
  if (options.rule_enabled("QB006")) {
    rule_custom_gates(circuit, options, out);
  }
  if (options.rule_enabled("QB008")) {
    rule_cancelling_pairs(circuit, flow, options, out);
  }
  if (options.rule_enabled("QB009")) {
    rule_cone_widths(circuit, cone, context, out);
  }
  if (options.rule_enabled("QB010")) {
    rule_plan_cost(circuit, plan.get(), out);
  }
  if (options.rule_enabled("QB011") && predictor.has_value()) {
    rule_predicted_variance(context, options, *predictor, baseline, out);
  }
  if (options.rule_enabled("QN120")) {
    rule_noise_floor(context, baseline, out);
  }
  return out;
}

Diagnostics lint_seed_assignments(
    const std::vector<std::pair<std::string, std::uint64_t>>& cells,
    const LintOptions& options) {
  Diagnostics out;
  if (!options.rule_enabled("QB007")) return out;
  std::map<std::uint64_t, std::vector<const std::string*>> by_seed;
  for (const auto& [label, seed] : cells) {
    by_seed[seed].push_back(&label);
  }
  RuleSink sink(out, options, Severity::kWarning, "QB007");
  for (const auto& [seed, labels] : by_seed) {
    if (labels.size() < 2) continue;
    std::ostringstream msg;
    msg << "seed " << seed << " is assigned to " << labels.size()
        << " cells (";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) msg << ", ";
      msg << *labels[i];
    }
    msg << "): their samples are identical draws, not independent "
        << "replicates";
    sink.add(msg.str(), "seed " + std::to_string(seed));
  }
  return out;
}

const std::vector<LintRuleInfo>& lint_rules() {
  static const std::vector<LintRuleInfo> kRules = {
      {"QB001", Severity::kError,
       "structurally dead parameter: the observable's backward light cone "
       "misses its rotation, so the gradient is identically zero",
       "light-cone analysis; paper Sec. 2 (Eq 2 circuit vs local observable)"},
      {"QB002", Severity::kWarning,
       "global cost on a deep, wide hardware-efficient ansatz: the "
       "closed-form 2-design model predicts exponentially decaying "
       "gradient variance (barren plateau)",
       "McClean et al. 2018; Cerezo et al. 2021; paper Eq 4; predict.hpp"},
      {"QB003", Severity::kWarning,
       "adjacent same-axis rotations on one qubit compose to a single "
       "rotation (wasted depth, over-parameterization)",
       "circuit identities; circuit/optimize.hpp fuse_rotations()"},
      {"QB004", Severity::kWarning,
       "qubit untouched by any entangling gate: the register factors into "
       "a product across that cut",
       "hardware-efficient-ansatz structure; paper Sec. 3"},
      {"QB005", Severity::kWarning,
       "layer-shape metadata does not tile the parameter vector, so "
       "fan-based initializers compute fans from a wrong tensor shape",
       "paper Sec. 4 (Xavier/He initialization); init/fan.hpp"},
      {"QB006", Severity::kError,
       "custom gate matrix has wrong dimensions or is non-unitary; "
       "simulation would throw or silently denormalize the state",
       "unitarity of quantum evolution; linalg/checks.hpp"},
      {"QB007", Severity::kWarning,
       "RNG seed reused across experiment cells: their samples are "
       "identical draws, not independent replicates",
       "paper Sec. 5 experimental protocol (independent repetitions)"},
      {"QB008", Severity::kWarning,
       "adjacent (up to commutation) constant gate pair composes to the "
       "identity: the pair cancels and only adds depth",
       "circuit identities; analysis/dataflow.hpp wire graph"},
      {"QB009", Severity::kInfo,
       "per-parameter backward light-cone width: the effective register "
       "each gradient sees, predicting its variance scaling",
       "McClean et al. 2018; Cerezo et al. 2021 cost locality"},
      {"QB010", Severity::kInfo,
       "statically estimated flops/bytes per application of the compiled "
       "execution plan",
       "exec/compiled_circuit.hpp lowering; plan_verify.hpp cost model"},
      {"QB011", Severity::kInfo,
       "closed-form per-parameter predicted gradient variance under the "
       "random baseline law; escalates to an error when the differentiated "
       "parameter is provably barren (below bp_variance_floor)",
       "Grant et al. 2019; Park et al. 2024; predict.hpp, conformance-"
       "checked vs the Monte-Carlo Fig 5a pipeline"},
      {"QN120", Severity::kError,
       "predicted gradient variance below the compiled plan's accumulated "
       "floating-point rounding-error bound: a Monte-Carlo sample would be "
       "numerically indistinguishable from noise",
       "predict.hpp FP-noise-floor model; plan_verify.hpp op counts"},
  };
  return kRules;
}

Table lint_rule_table() {
  Table table({"code", "severity", "predicts", "source"});
  for (const LintRuleInfo& rule : lint_rules()) {
    table.begin_row();
    table.push(rule.code);
    table.push(severity_name(rule.severity));
    table.push(rule.summary);
    table.push(rule.reference);
  }
  return table;
}

}  // namespace qbarren
