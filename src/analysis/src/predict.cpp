#include "qbarren/analysis/predict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// Regime thresholds on the mixing fraction M.
constexpr double kNearIdentityCeiling = 0.15;
constexpr double kTwoDesignFloor = 0.85;

std::string sigma2_string(double variance) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", variance);
  return buf;
}

}  // namespace

// --- angle models -----------------------------------------------------------

std::optional<AngleModel> angle_model_for(const std::string& initializer,
                                          const Circuit& circuit,
                                          FanMode mode) {
  const FanPair fans = compute_fans(circuit, mode);
  const double fi = static_cast<double>(fans.fan_in);
  const double fo = static_cast<double>(fans.fan_out);
  AngleModel model;
  model.initializer = initializer;
  if (initializer == "random") {
    model.variance = kPi * kPi / 3.0;  // U[0, 2*pi): (2*pi)^2 / 12
    model.law = "U[0, 2*pi)";
  } else if (initializer == "xavier-normal") {
    model.variance = 2.0 / (fi + fo);
    model.law = "N(0, 2/(fan_in+fan_out))";
  } else if (initializer == "xavier-uniform") {
    // U(-l, l), l = sqrt(6/(fi+fo)): variance l^2/3 = 2/(fi+fo).
    model.variance = 2.0 / (fi + fo);
    model.law = "U(-sqrt(6/(fan_in+fan_out)), +)";
  } else if (initializer == "he") {
    model.variance = 2.0 / fi;
    model.law = "N(0, 2/fan_in)";
  } else if (initializer == "he-uniform") {
    model.variance = 2.0 / fi;
    model.law = "U(-sqrt(6/fan_in), +)";
  } else if (initializer == "lecun") {
    model.variance = 1.0 / fi;
    model.law = "N(0, 1/fan_in)";
  } else if (initializer == "lecun-uniform") {
    model.variance = 1.0 / (3.0 * fi);
    model.law = "U(-1/sqrt(fan_in), +)";
  } else if (initializer == "orthogonal") {
    // Rows of fan_in x fan_in Haar orthogonal blocks: entry variance
    // exactly 1/fan_in.
    model.variance = 1.0 / fi;
    model.law = "Haar orthogonal rows (per-layer blocks)";
  } else if (initializer == "orthogonal-full") {
    model.variance = 1.0 / std::max(fi, fo);
    model.law = "Haar semi-orthogonal (full tensor)";
  } else if (initializer == "zeros") {
    model.variance = 0.0;
    model.law = "theta = 0 (exact identity)";
  } else if (initializer == "small-normal") {
    model.variance = 0.01;  // registry default sigma = 0.1
    model.law = "N(0, 0.1^2)";
  } else {
    // "beta" (mean pi/2 breaks the zero-mean near-identity expansion)
    // and anything unknown.
    return std::nullopt;
  }
  return model;
}

bool angle_model_supported(const std::string& initializer) {
  Circuit probe(1);
  (void)probe.add_rotation(gates::Axis::kX, 0);
  return angle_model_for(initializer, probe).has_value();
}

// --- cost geometry ----------------------------------------------------------

std::string predicted_cost_name(PredictedCost cost) {
  switch (cost) {
    case PredictedCost::kGlobalProjector:
      return "global-projector";
    case PredictedCost::kLocalProjector:
      return "local-projector";
    case PredictedCost::kPauli:
      return "pauli";
  }
  throw InvalidArgument("predicted_cost_name: unknown cost");
}

PredictedCost predicted_cost_for(CostKind kind) {
  switch (kind) {
    case CostKind::kGlobalZero:
      return PredictedCost::kGlobalProjector;
    case CostKind::kLocalZero:
      return PredictedCost::kLocalProjector;
    case CostKind::kPauliZZ:
      return PredictedCost::kPauli;
  }
  throw InvalidArgument("predicted_cost_for: unknown cost kind");
}

std::string variance_regime_name(VarianceRegime regime) {
  switch (regime) {
    case VarianceRegime::kDead:
      return "dead";
    case VarianceRegime::kNearIdentity:
      return "near-identity";
    case VarianceRegime::kTransition:
      return "transition";
    case VarianceRegime::kTwoDesign:
      return "2-design";
  }
  throw InvalidArgument("variance_regime_name: unknown regime");
}

// --- VariancePrediction -----------------------------------------------------

double VariancePrediction::min_alive_variance() const {
  double min_v = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const ParameterPrediction& p : parameters) {
    if (!p.alive) continue;
    any = true;
    min_v = std::min(min_v, p.variance);
  }
  return any ? min_v : 0.0;
}

Table VariancePrediction::table(std::size_t max_rows) const {
  Table table({"param", "width", "regime", "mixing", "Var[dC/dtheta]"});
  std::size_t shown = 0;
  for (const ParameterPrediction& p : parameters) {
    if (shown == max_rows) break;
    table.begin_row();
    table.push(p.parameter);
    table.push(p.cone_width);
    table.push(variance_regime_name(p.regime));
    table.push(p.mixing, 3);
    table.push_sci(p.variance);
    ++shown;
  }
  if (parameters.size() > shown) {
    table.begin_row();
    table.push("...");
    table.push(std::string());
    table.push(std::string());
    table.push(std::string());
    table.push("(+" + std::to_string(parameters.size() - shown) +
               " more parameters)");
  }
  return table;
}

// --- VariancePredictor ------------------------------------------------------

namespace {

Diagnostics refusals(const Circuit& circuit) {
  Diagnostics out;
  if (!circuit.custom_gates().empty()) {
    out.push_back(Diagnostic{
        Severity::kInfo, "QB011",
        "variance model refuses: circuit uses " +
            std::to_string(circuit.custom_gates().size()) +
            " custom gate block(s), which are not drawn from the "
            "rotation/Clifford family the 2-design average is taken over; "
            "no closed-form estimate is produced (run the Monte-Carlo "
            "pipeline instead)",
        "custom gates"});
  }
  if (circuit.num_parameters() == 0) {
    out.push_back(
        Diagnostic{Severity::kInfo, "QB011",
                   "variance model refuses: circuit has no trainable "
                   "parameters, so there is no gradient to predict",
                   "parameters"});
  }
  return out;
}

}  // namespace

VariancePredictor::VariancePredictor(const Circuit& circuit,
                                     PredictorModel model)
    : owned_flow_(std::make_unique<const CircuitDataflow>(circuit)),
      flow_(owned_flow_.get()),
      model_(model),
      applicability_(refusals(circuit)) {
  std::shared_ptr<const exec::CompiledCircuit> plan;
  if (applicable()) {
    try {
      plan = exec::CompiledCircuit::compile(circuit);
    } catch (const Error&) {
      // Fall back to the raw op count; the floor is a bound either way.
    }
  }
  set_noise_floor(plan.get());
}

VariancePredictor::VariancePredictor(const CircuitDataflow& flow,
                                     const exec::CompiledCircuit* plan,
                                     PredictorModel model)
    : flow_(&flow), model_(model), applicability_(refusals(flow.circuit())) {
  set_noise_floor(plan);
}

void VariancePredictor::set_noise_floor(const exec::CompiledCircuit* plan) {
  // FP-noise-floor model: each amplitude accumulates ~flops_per_op * eps
  // relative error per plan op, so an expectation value carries an error
  // bound delta ~ k * ops * eps and a parameter-shift gradient (the
  // difference of two such values) has a variance floor ~ delta^2.
  plan_ops_ = flow_->circuit().num_operations();
  if (applicable() && plan != nullptr) {
    // A CZ ladder counts as the gates it covers, as when each CZ was a
    // kernel op of its own: the floor is a property of the circuit, not
    // of how lowering batches its exact sign flips.
    const PlanResourceEstimate e = estimate_plan_resources(*plan);
    plan_ops_ = e.plan_ops - e.cz_ladders + e.cz_ladder_gates;
  }
  const double delta = model_.noise_flops_per_op *
                       static_cast<double>(plan_ops_) *
                       std::numeric_limits<double>::epsilon();
  noise_floor_ = delta * delta;
}

VariancePrediction VariancePredictor::predict(
    const AngleModel& angles,
    const std::vector<std::size_t>& observable_qubits,
    PredictedCost cost) const {
  QBARREN_REQUIRE(applicable(),
                  "VariancePredictor::predict: model not applicable to this "
                  "circuit (see applicability())");
  return predict(angles, observable_qubits,
                 flow_->backward_light_cone(observable_qubits), cost);
}

VariancePrediction VariancePredictor::predict(
    const AngleModel& angles,
    const std::vector<std::size_t>& observable_qubits,
    const CircuitDataflow::LightCone& cone, PredictedCost cost) const {
  QBARREN_REQUIRE(applicable(),
                  "VariancePredictor::predict: model not applicable to this "
                  "circuit (see applicability())");
  const Circuit& circuit = flow_->circuit();
  QBARREN_REQUIRE(cone.alive.size() == circuit.num_parameters() &&
                      cone.support_width.size() == flow_->num_ops(),
                  "VariancePredictor::predict: light cone of another circuit");
  const std::size_t n = circuit.num_qubits();

  // Scrambling depth D: alive parameterized rotations per qubit — how many
  // random rotations separate a parameter from a product state. For the
  // Eq-2 variance ansatz D equals the layer count.
  std::size_t alive_rotations = 0;
  for (std::size_t p = 0; p < circuit.num_parameters(); ++p) {
    if (flow_->op_for_parameter(p) != CircuitDataflow::kNoOp &&
        cone.alive[p]) {
      ++alive_rotations;
    }
  }
  const double depth = std::max(
      1.0, static_cast<double>(alive_rotations) / static_cast<double>(n));

  const double sigma2 = angles.variance;
  const double scramble = sigma2 * depth;  // total per-qubit angle budget
  const double mixing =
      sigma2 > 0.0 ? std::min(1.0, std::pow(scramble / model_.mixing_scale,
                                            model_.mixing_exponent))
                   : 0.0;

  VariancePrediction out;
  out.angles = angles;
  out.cost = cost;
  out.noise_floor = noise_floor_;
  out.plan_ops = plan_ops_;
  out.parameters.reserve(circuit.num_parameters());

  const double ln2 = std::log(2.0);
  const double ln_c0 = std::log(model_.two_design_constant);

  for (std::size_t p = 0; p < circuit.num_parameters(); ++p) {
    ParameterPrediction pp;
    pp.parameter = p;
    const std::size_t op_index = flow_->op_for_parameter(p);
    if (op_index == CircuitDataflow::kNoOp || !cone.alive[p]) {
      out.parameters.push_back(pp);  // dead: variance 0
      continue;
    }
    pp.alive = true;
    pp.cone_width = std::max<std::size_t>(1, cone.cone_width[p]);
    pp.mixing = mixing;
    const double w = static_cast<double>(pp.cone_width);

    // 2-design limit: ln V_2d = ln c0 + ln G(O, w), with the trace factor
    // G of the Haar variance formula per cost geometry.
    double ln_v2d = ln_c0;
    switch (cost) {
      case PredictedCost::kGlobalProjector:
        ln_v2d += -2.0 * w * ln2;  // Tr(O^2) = 1 on a 2^w space
        break;
      case PredictedCost::kPauli:
        // Tr(P^2) = 2^w decay until the Park-style deep-circuit
        // saturation takes over (validated against the Monte-Carlo up to
        // q = 10; the plateau dominates from w ~ 7).
        ln_v2d += std::log(std::exp2(-w) + model_.pauli_plateau);
        break;
      case PredictedCost::kLocalProjector:
        // Averaged one-qubit projectors: Pauli-like decay with the 1/(4n)
        // prefactor of the (1/n) sum of (I+Z_i)/2 terms.
        ln_v2d += -w * ln2 - std::log(4.0 * static_cast<double>(n));
        break;
    }

    if (sigma2 <= 0.0) {
      // Exact identity circuit: the cost sits at its stationary point, the
      // gradient is identically 0 (and the Monte-Carlo agrees exactly).
      pp.regime = VarianceRegime::kNearIdentity;
      pp.variance = 0.0;
      out.parameters.push_back(pp);
      continue;
    }

    // Near-identity limit (Grant et al.): first-order perturbation theory
    // around U = I. rho is the squared first-order cost response.
    const Operation& op = circuit.operations()[op_index];
    const bool controlled = op.kind == OpKind::kControlledRotation;
    bool on_support = true;
    if (cost == PredictedCost::kPauli) {
      on_support = false;
      for (std::size_t q : observable_qubits) {
        if (op.qubit0 == q || (controlled && op.qubit1 == q)) {
          on_support = true;
          break;
        }
      }
    }
    double rho = 1.0;
    switch (cost) {
      case PredictedCost::kGlobalProjector:
        rho = 0.25;  // d(1 - cos^2(t/2))/dt ~ t/2
        break;
      case PredictedCost::kLocalProjector:
        rho = 0.25 / (static_cast<double>(n) * static_cast<double>(n));
        break;
      case PredictedCost::kPauli:
        rho = 1.0;  // d<Z>/dt ~ -t for an on-support X/Y rotation
        break;
    }
    // Z-axis rotations (and controlled rotations, whose control is |0> at
    // the identity) commute with the |0..0> start state: their first-order
    // response vanishes and the signal is second order, ~sigma^4. The
    // (1 + S) factor carries the second-order growth of the response with
    // the accumulated angle budget S of the other rotations (fitted
    // against the Monte-Carlo pipeline; exact at S -> 0).
    const bool first_order_null =
        controlled || op.axis == gates::Axis::kZ ||
        (cost == PredictedCost::kPauli && !on_support);
    const double v_ni = (first_order_null
                             ? rho * model_.z_axis_suppression * sigma2 *
                                   sigma2 / 4.0
                             : rho * sigma2) *
                        (1.0 + scramble);
    const double ln_vni = std::log(v_ni);

    // Log-space interpolation between the two limits by the mixing
    // fraction (Park-style depth/width transition).
    const double ln_v =
        mixing >= 1.0 ? ln_v2d : (1.0 - mixing) * ln_vni + mixing * ln_v2d;
    pp.variance = std::exp(ln_v);
    pp.regime = mixing < kNearIdentityCeiling ? VarianceRegime::kNearIdentity
                : mixing > kTwoDesignFloor    ? VarianceRegime::kTwoDesign
                                              : VarianceRegime::kTransition;
    out.parameters.push_back(pp);
  }

  out.assumptions = {
      "angle law " + angles.law + " with sigma^2 = " +
          sigma2_string(angles.variance) + " per angle",
      "cost geometry " + predicted_cost_name(cost) +
          " sets the 2-design trace factor (global 2^(-2w), pauli 2^(-w), "
          "local 2^(-w)/4n)",
      "2-design mixing M = min(1, (sigma^2*D/K)^p) with D = " +
          sigma2_string(depth) + " alive rotations/qubit, K = " +
          sigma2_string(model_.mixing_scale) + ", p = " +
          sigma2_string(model_.mixing_exponent),
      "light-cone widths from the dataflow fixpoint; dead parameters "
      "predict exactly 0",
      "noise floor (" + sigma2_string(model_.noise_flops_per_op) + "*ops*eps)^2 with ops = " +
          std::to_string(plan_ops_),
  };
  return out;
}

// --- experiment-level prediction --------------------------------------------

namespace {

void require_angle_model(const std::string& initializer) {
  if (!angle_model_supported(initializer)) {
    throw NotFound("predict_variance_cell: no closed-form angle model for "
                   "initializer '" +
                   initializer + "'");
  }
}

/// The cells of qubit count options.qubit_counts[qubit_index], one per
/// initializer. Each structure's circuit, dataflow, plan and light cone
/// are built once and every initializer's angle law is evaluated against
/// them; each cell sums its structures in ascending order.
std::vector<CellPrediction> predict_row(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    const std::vector<std::string>& initializers, const PredictorModel& model,
    std::size_t structures) {
  const std::size_t q = options.qubit_counts[qubit_index];
  const auto observable_qubits = cost_observable_qubits(options.cost, q);
  const PredictedCost cost = predicted_cost_for(options.cost);
  const std::size_t count =
      structures == 0
          ? options.circuits_per_point
          : std::min(structures, options.circuits_per_point);
  QBARREN_REQUIRE(count > 0, "predict_variance_cell: empty ensemble");

  std::vector<CellPrediction> cells(initializers.size());
  std::vector<double> sums(initializers.size(), 0.0);
  for (CellPrediction& cell : cells) {
    cell.qubits = q;
    cell.structures = count;
  }
  for (std::size_t i = 0; i < count; ++i) {
    // The exact structure ensemble compute_variance_cell samples
    // (variance_structure) — only the simulation is skipped.
    const Circuit circuit = variance_structure(options, qubit_index, i);
    const VariancePredictor predictor(circuit, model);
    const CircuitDataflow::LightCone cone =
        predictor.flow().backward_light_cone(observable_qubits);
    const std::size_t which =
        sampled_parameter(circuit, options.which_parameter);
    for (std::size_t j = 0; j < initializers.size(); ++j) {
      const auto angles = angle_model_for(initializers[j], circuit);
      QBARREN_REQUIRE(angles.has_value(),
                      "predict_variance_cell: angle model vanished");
      const VariancePrediction prediction =
          predictor.predict(*angles, observable_qubits, cone, cost);
      const ParameterPrediction& pp = prediction.parameters.at(which);
      if (!pp.alive) ++cells[j].dead_structures;
      sums[j] += pp.variance;
      cells[j].noise_floor =
          std::max(cells[j].noise_floor, prediction.noise_floor);
    }
  }
  for (std::size_t j = 0; j < cells.size(); ++j) {
    cells[j].variance = sums[j] / static_cast<double>(count);
  }
  return cells;
}

}  // namespace

CellPrediction predict_variance_cell(const VarianceExperimentOptions& options,
                                     std::size_t qubit_index,
                                     const std::string& initializer,
                                     const PredictorModel& model,
                                     std::size_t structures) {
  QBARREN_REQUIRE(qubit_index < options.qubit_counts.size(),
                  "predict_variance_cell: qubit_index out of range");
  require_angle_model(initializer);
  return predict_row(options, qubit_index, {initializer}, model, structures)
      .front();
}

PredictionGrid predict_variance_grid(const VarianceExperimentOptions& options,
                                     const std::vector<std::string>& initializers,
                                     const PredictorModel& model,
                                     std::size_t structures) {
  for (const std::string& name : initializers) require_angle_model(name);
  PredictionGrid grid;
  grid.options = options;
  grid.series.resize(initializers.size());
  for (std::size_t j = 0; j < initializers.size(); ++j) {
    grid.series[j].initializer = initializers[j];
  }
  for (std::size_t qi = 0; qi < options.qubit_counts.size(); ++qi) {
    std::vector<CellPrediction> row =
        predict_row(options, qi, initializers, model, structures);
    for (std::size_t j = 0; j < row.size(); ++j) {
      grid.series[j].cells.push_back(row[j]);
    }
  }
  for (PredictionSeries& series : grid.series) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const CellPrediction& cell : series.cells) {
      if (cell.variance > 0.0) {
        xs.push_back(static_cast<double>(cell.qubits));
        ys.push_back(std::log(cell.variance));
      }
    }
    series.decay_fit = xs.size() >= 2 ? linear_fit(xs, ys) : LinearFit{};
  }
  return grid;
}

const PredictionSeries& PredictionGrid::find(
    const std::string& initializer) const {
  for (const PredictionSeries& s : series) {
    if (s.initializer == initializer) return s;
  }
  throw NotFound("PredictionGrid: no series for initializer '" + initializer +
                 "'");
}

Table PredictionGrid::variance_table() const {
  std::vector<std::string> headers{"qubits"};
  for (const PredictionSeries& s : series) {
    headers.push_back("pred Var[" + s.initializer + "]");
  }
  Table table(std::move(headers));
  if (series.empty()) return table;
  for (std::size_t row = 0; row < series.front().cells.size(); ++row) {
    table.begin_row();
    table.push(series.front().cells[row].qubits);
    for (const PredictionSeries& s : series) {
      table.push_sci(s.cells[row].variance);
    }
  }
  return table;
}

Table PredictionGrid::decay_table() const {
  const auto random_it =
      std::find_if(series.begin(), series.end(), [](const PredictionSeries& s) {
        return s.initializer == "random";
      });
  const bool baseline_ok = random_it != series.end() &&
                           std::isfinite(random_it->decay_fit.slope) &&
                           std::abs(random_it->decay_fit.slope) > 1e-12;
  std::vector<std::string> headers{"initializer",
                                   "predicted slope (ln Var/qubit)"};
  if (random_it != series.end()) {
    headers.push_back("improvement vs random [%]");
  }
  Table table(std::move(headers));
  for (const PredictionSeries& s : series) {
    table.begin_row();
    table.push(s.initializer);
    table.push(s.decay_fit.slope, 4);
    if (random_it != series.end()) {
      if (s.initializer == "random") {
        table.push(std::string("(baseline)"));
      } else if (baseline_ok) {
        const double sr = std::abs(random_it->decay_fit.slope);
        const double si = std::abs(s.decay_fit.slope);
        table.push((sr - si) / sr * 100.0, 1);
      } else {
        table.push(std::string("n/a"));
      }
    }
  }
  return table;
}

JsonValue to_json(const PredictionGrid& grid) {
  JsonValue root = JsonValue::object();
  root.set("schema", "qbarren.predict.grid.v1");
  root.set("layers", grid.options.layers);
  root.set("cost", cost_kind_name(grid.options.cost));
  JsonValue series_array = JsonValue::array();
  for (const PredictionSeries& s : grid.series) {
    JsonValue series = JsonValue::object();
    series.set("initializer", s.initializer);
    series.set("decay_slope", s.decay_fit.slope);
    JsonValue cell_array = JsonValue::array();
    for (const CellPrediction& c : s.cells) {
      JsonValue cell = JsonValue::object();
      cell.set("qubits", c.qubits);
      cell.set("variance", c.variance);
      cell.set("noise_floor", c.noise_floor);
      cell.set("structures", c.structures);
      cell.set("dead_structures", c.dead_structures);
      cell_array.push_back(std::move(cell));
    }
    series.set("cells", std::move(cell_array));
    series_array.push_back(std::move(series));
  }
  root.set("series", std::move(series_array));
  return root;
}

// --- conformance harness ----------------------------------------------------

const std::vector<ConformanceBand>& default_conformance_bands() {
  // Decade bands fitted once against the repo's Monte-Carlo pipeline at
  // the paper grid (q = 2..10, 50 layers) across all three cost
  // geometries; see TUTORIAL §18. The He and orthogonal families get the
  // widest bands: their ~1/n angle laws sit at or near the mixing
  // saturation point, where the hard min(1, S/K) cutoff misestimates the
  // q = 10 tail by up to ~1.5 decades (He under the local cost,
  // orthogonal under the global cost).
  static const std::vector<ConformanceBand> bands = {
      {"random", 1.0},        {"xavier-normal", 1.3}, {"xavier-uniform", 1.3},
      {"he", 1.6},            {"he-uniform", 1.6},    {"lecun", 1.3},
      {"lecun-uniform", 1.3}, {"orthogonal", 1.6},    {"orthogonal-full", 1.5},
      {"zeros", 0.5},         {"small-normal", 1.5},
  };
  return bands;
}

namespace {

double band_for(const std::vector<ConformanceBand>& bands,
                const std::string& initializer) {
  for (const ConformanceBand& b : bands) {
    if (b.initializer == initializer) return b.log10_tolerance;
  }
  return 1.0;
}

}  // namespace

Table ConformanceReport::table() const {
  Table table({"initializer", "qubits", "predicted", "measured", "log10 err",
               "band", "ok"});
  for (const ConformanceCell& c : cells) {
    table.begin_row();
    table.push(c.initializer);
    table.push(c.qubits);
    table.push_sci(c.predicted);
    table.push_sci(c.measured);
    table.push(c.log10_error, 2);
    table.push(c.tolerance, 2);
    table.push(std::string(c.within ? "yes" : "NO"));
  }
  return table;
}

Table ConformanceReport::slope_table() const {
  Table table({"initializer", "predicted slope", "measured slope"});
  for (const ConformanceFit& f : fits) {
    table.begin_row();
    table.push(f.initializer);
    table.push(f.predicted_slope, 4);
    table.push(f.measured_slope, 4);
  }
  return table;
}

JsonValue ConformanceReport::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("schema", "qbarren.predict.conformance.v1");
  root.set("ok", ok());
  root.set("ordering_ok", ordering_ok);
  root.set("all_within", all_within);
  JsonValue cell_array = JsonValue::array();
  for (const ConformanceCell& c : cells) {
    JsonValue cell = JsonValue::object();
    cell.set("initializer", c.initializer);
    cell.set("qubits", c.qubits);
    cell.set("predicted", c.predicted);
    cell.set("measured", c.measured);
    cell.set("log10_error", c.log10_error);
    cell.set("tolerance", c.tolerance);
    cell.set("within", c.within);
    cell_array.push_back(std::move(cell));
  }
  root.set("cells", std::move(cell_array));
  JsonValue fit_array = JsonValue::array();
  for (const ConformanceFit& f : fits) {
    JsonValue fit = JsonValue::object();
    fit.set("initializer", f.initializer);
    fit.set("predicted_slope", f.predicted_slope);
    fit.set("measured_slope", f.measured_slope);
    fit_array.push_back(std::move(fit));
  }
  root.set("slopes", std::move(fit_array));
  return root;
}

ConformanceReport predict_conformance(
    const VarianceExperimentOptions& options,
    const std::vector<std::string>& initializers,
    const std::vector<ConformanceBand>& bands, const PredictorModel& model,
    const RunControl& control) {
  QBARREN_REQUIRE(!initializers.empty(),
                  "predict_conformance: need at least one initializer");
  for (const std::string& name : initializers) {
    if (!angle_model_supported(name)) {
      throw NotFound("predict_conformance: initializer '" + name +
                     "' has no closed-form angle model");
    }
  }

  // Static half: the full grid, zero simulation.
  const PredictionGrid grid =
      predict_variance_grid(options, initializers, model);

  // Monte-Carlo half: the exact Fig 5a pipeline.
  std::vector<std::unique_ptr<Initializer>> owned;
  std::vector<const Initializer*> ptrs;
  owned.reserve(initializers.size());
  for (const std::string& name : initializers) {
    owned.push_back(make_initializer(name));
    ptrs.push_back(owned.back().get());
  }
  const VarianceExperiment experiment(options);
  const VarianceResult measured = experiment.run(ptrs, control);

  ConformanceReport report;
  report.all_within = true;
  for (const std::string& name : initializers) {
    const PredictionSeries& pred = grid.find(name);
    const VarianceSeries& meas = measured.find(name);
    report.fits.push_back(
        ConformanceFit{name, pred.decay_fit.slope, meas.decay_fit.slope});
    for (std::size_t qi = 0; qi < options.qubit_counts.size(); ++qi) {
      ConformanceCell cell;
      cell.initializer = name;
      cell.qubits = options.qubit_counts[qi];
      cell.predicted = pred.cells[qi].variance;
      cell.measured = meas.points[qi].variance;
      cell.tolerance = band_for(bands, name);
      const double floor = pred.cells[qi].noise_floor;
      if (cell.predicted <= floor && cell.measured <= floor) {
        // Both instruments agree the signal is exactly/numerically zero
        // (dead parameter, identity circuit, or below the FP floor).
        cell.log10_error = 0.0;
        cell.within = true;
      } else if (cell.predicted <= 0.0 || cell.measured <= 0.0) {
        cell.log10_error = std::numeric_limits<double>::infinity();
        cell.within = false;
      } else {
        cell.log10_error = std::log10(cell.predicted / cell.measured);
        cell.within = std::abs(cell.log10_error) <= cell.tolerance;
      }
      report.all_within = report.all_within && cell.within;
      report.cells.push_back(std::move(cell));
    }
  }

  // Fig 5a ordering: random decays steepest, a Xavier family stays
  // flattest, and every alternative improves on random — in both
  // instruments.
  const auto find_fit = [&](const std::string& name) -> const ConformanceFit* {
    for (const ConformanceFit& f : report.fits) {
      if (f.initializer == name) return &f;
    }
    return nullptr;
  };
  const ConformanceFit* random_fit = find_fit("random");
  if (report.fits.size() < 2) {
    report.ordering_ok = true;  // nothing to order
  } else if (random_fit == nullptr) {
    report.ordering_ok = false;  // no baseline to order against
  } else {
    bool ok = true;
    for (const ConformanceFit& f : report.fits) {
      if (f.initializer == "random") continue;
      // Non-strict: a fully mixed strategy (M = 1, e.g. He at 50 layers)
      // legitimately ties the random baseline's predicted slope.
      ok = ok && std::abs(f.predicted_slope) <=
                     std::abs(random_fit->predicted_slope) + 1e-9;
      ok = ok && std::abs(f.measured_slope) <=
                     std::abs(random_fit->measured_slope) + 1e-9;
    }
    // The flattest-curve claim is Fig 5a's: among the *paper's* six
    // strategies, a Xavier family decays slowest. Registry extras
    // (small-normal's near-zero angles, orthogonal-full's max-fan law)
    // are legitimately flatter and sit out this comparison. The 0.1
    // slope tolerance absorbs the fit noise of a 50-circuit Monte-Carlo
    // ensemble — decisive under the global cost, where the curves are
    // decades apart, while not failing the Pauli geometry whose slopes
    // all sit at the Park-style plateau (statistically zero).
    static const char* kFigStrategies[] = {"random", "xavier-normal",
                                           "xavier-uniform", "he",
                                           "lecun", "orthogonal"};
    const auto in_figure = [&](const std::string& name) {
      for (const char* s : kFigStrategies) {
        if (name == s) return true;
      }
      return false;
    };
    constexpr double kSlopeTolerance = 0.1;
    const ConformanceFit* flattest_pred = random_fit;
    const ConformanceFit* flattest_meas = random_fit;
    const ConformanceFit* xavier_pred = nullptr;
    const ConformanceFit* xavier_meas = nullptr;
    for (const ConformanceFit& f : report.fits) {
      if (!in_figure(f.initializer)) continue;
      if (std::abs(f.predicted_slope) <
          std::abs(flattest_pred->predicted_slope)) {
        flattest_pred = &f;
      }
      if (std::abs(f.measured_slope) <
          std::abs(flattest_meas->measured_slope)) {
        flattest_meas = &f;
      }
      if (f.initializer.rfind("xavier", 0) != 0) continue;
      if (xavier_pred == nullptr || std::abs(f.predicted_slope) <
                                        std::abs(xavier_pred->predicted_slope)) {
        xavier_pred = &f;
      }
      if (xavier_meas == nullptr || std::abs(f.measured_slope) <
                                        std::abs(xavier_meas->measured_slope)) {
        xavier_meas = &f;
      }
    }
    if (xavier_pred != nullptr) {
      ok = ok && std::abs(xavier_pred->predicted_slope) <=
                     std::abs(flattest_pred->predicted_slope) + kSlopeTolerance;
      ok = ok && std::abs(xavier_meas->measured_slope) <=
                     std::abs(flattest_meas->measured_slope) + kSlopeTolerance;
    }
    report.ordering_ok = ok;
  }
  return report;
}

}  // namespace qbarren
