// Analytic barren-plateau predictor: a closed-form gradient-variance
// model that answers "is this configuration barren?" with zero simulation.
//
// The Monte-Carlo pipeline (bp/variance.hpp) estimates Var[dC/dtheta_k] by
// running thousands of state-vector simulations. This module computes the
// same quantity statically, per parameter, from four structural inputs:
//
//   * the **initializer family**: each supported strategy maps to a
//     closed-form angle law (AngleModel) — a per-angle variance sigma^2
//     derived from the same fan convention the initializers use
//     (init/fan.hpp). Random U[0,2*pi) has sigma^2 = pi^2/3; the
//     Gaussian/uniform fan families shrink as 1/fan; zeros is the exact
//     identity.
//   * the **cost locality**: a global projector (Eq 4) pays the full
//     2^(-2w) Haar-average suppression (McClean et al. 2018), a Pauli
//     observable pays 2^(-w), and a Cerezo-style averaged local projector
//     sits between with a 1/n prefactor (Cerezo et al. 2021).
//   * the **effective light-cone width** w: the number of qubits the
//     observable's support has spread to at the parameter's operation
//     (CircuitDataflow::backward_light_cone) — the width whose Hilbert
//     space the gradient actually sees. Structurally dead parameters
//     predict exactly 0.
//   * the **scrambling depth**: how many random rotations per qubit
//     separate the parameter from a product state. Small-angle circuits
//     stay near the identity (Grant et al. 2019) where the gradient is
//     set by first-order perturbation theory, V ~ rho * sigma^2; deep
//     wide-angle circuits approach a 2-design where V ~ c0 * G(O, w).
//     In between, the model interpolates in log space with a mixing
//     fraction M = min(1, (sigma^2 * depth / K)^p) — the depth/width
//     transition regime of Park et al. 2024.
//
// The model is calibrated once against this repo's own Monte-Carlo
// Fig 5a pipeline (constants in PredictorModel; conformance bands in
// default_conformance_bands) and `predict_conformance` re-checks the
// agreement on every CI run. It deliberately *refuses* to produce a
// number when its assumptions fail — custom (non-2-design-family) gate
// blocks or non-zero-mean angle laws — reporting an info diagnostic
// instead of a wrong estimate.
//
// The same engine also bounds what Monte-Carlo could even measure: the
// compiled plan's accumulated floating-point rounding error sets a
// variance floor (~(ops * eps)^2) below which a simulated gradient is
// numerically indistinguishable from noise. QN120 fires when the
// predicted variance sinks under that floor.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qbarren/analysis/dataflow.hpp"
#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/init/fan.hpp"

namespace qbarren {

namespace exec {
class CompiledCircuit;
}  // namespace exec

// --- angle models -----------------------------------------------------------

/// Closed-form law of one initializer family's per-angle distribution,
/// evaluated for a concrete circuit (the fan pair depends on its layer
/// shape). The model only needs the second moment and whether the law is
/// exactly zero (identity circuit).
struct AngleModel {
  std::string initializer;  ///< registry name the law models
  double variance = 0.0;    ///< Var[theta] of one angle
  std::string law;          ///< human-readable law, e.g. "N(0, 2/(n+L))"
};

/// Builds the angle law for a registry initializer name on `circuit`.
/// Returns nullopt for families the predictor cannot model: unknown
/// names, and "beta" (non-zero-mean angles break the near-identity
/// expansion the model interpolates from).
[[nodiscard]] std::optional<AngleModel> angle_model_for(
    const std::string& initializer, const Circuit& circuit,
    FanMode mode = FanMode::kLayerTensor);

/// True when angle_model_for would succeed for this name.
[[nodiscard]] bool angle_model_supported(const std::string& initializer);

// --- cost geometry ----------------------------------------------------------

/// The observable geometries the 2-design limit distinguishes (through
/// the Tr(O^2)-style factor of the Haar variance formula).
enum class PredictedCost {
  kGlobalProjector,  ///< |0..0><0..0| on the whole register: V ~ 2^(-2w)
  kLocalProjector,   ///< averaged one-qubit projectors: V ~ 2^(-w) / n
  kPauli,            ///< few-qubit Pauli word: V ~ 2^(-w)
};

[[nodiscard]] std::string predicted_cost_name(PredictedCost cost);

/// Maps the bp experiment cost kinds onto the model's geometries.
[[nodiscard]] PredictedCost predicted_cost_for(CostKind kind);

// --- the predictor ----------------------------------------------------------

/// Which regime the model places a parameter in (by mixing fraction M).
enum class VarianceRegime {
  kDead,          ///< structurally zero gradient (outside the light cone)
  kNearIdentity,  ///< M < 0.15: Grant-style perturbative regime
  kTransition,    ///< Park-style depth/width crossover
  kTwoDesign,     ///< M > 0.85: McClean Haar-average regime
};

[[nodiscard]] std::string variance_regime_name(VarianceRegime regime);

/// Calibration constants of the closed-form model. The defaults are
/// fitted once against this repo's Monte-Carlo Fig 5a pipeline (paper
/// grid: q = 2..10, 50 layers, CZ-ladder HEA) and pinned by the
/// conformance tests; override only to re-fit.
struct PredictorModel {
  /// Prefactor of the 2-design limit V_2d = c0 * G(O, w).
  double two_design_constant = 0.3;
  /// Scrambling scale K: mixing reaches 1 when sigma^2 * depth ~ K.
  double mixing_scale = 7.5;
  /// Mixing exponent p of M = min(1, (sigma^2 * depth / K)^p).
  double mixing_exponent = 1.0;
  /// Deep-circuit saturation of the Pauli geometry: a traceless local
  /// observable keeps an O(1) residual commutator weight under deep
  /// scrambling (Park et al. 2024 — no decay at any depth), so
  /// V_2d = c0 * (2^(-w) + plateau) instead of the naive exponential.
  double pauli_plateau = 0.01;
  /// Second-order prefactor for Z-axis rotations (first-order-null at
  /// the identity, every cost here being diagonal in Z).
  double z_axis_suppression = 1.0;
  /// Average flops per plan op per amplitude feeding the rounding-error
  /// bound delta = noise_flops_per_op * plan_ops * machine_epsilon.
  double noise_flops_per_op = 8.0;
};

/// One parameter's closed-form prediction.
struct ParameterPrediction {
  std::size_t parameter = 0;
  bool alive = false;            ///< false: structurally dead, variance 0
  std::size_t cone_width = 0;    ///< effective register width w
  VarianceRegime regime = VarianceRegime::kDead;
  double mixing = 0.0;           ///< M in [0, 1]
  double variance = 0.0;         ///< predicted Var[dC/dtheta_k]
};

/// A full-circuit prediction under one (angle law, cost) pair.
struct VariancePrediction {
  AngleModel angles;
  PredictedCost cost = PredictedCost::kGlobalProjector;
  std::vector<ParameterPrediction> parameters;
  /// Variance floor implied by the compiled plan's accumulated rounding
  /// error: a Monte-Carlo estimate below this is numerically
  /// untrustworthy (QN120's threshold).
  double noise_floor = 0.0;
  /// Op count behind the noise model: plan ops, with each CZ ladder
  /// counted as the CZ gates it covers.
  std::size_t plan_ops = 0;
  /// The modeling assumptions the numbers rest on, for reports.
  std::vector<std::string> assumptions;
};

/// The closed-form engine. Construction takes the circuit's dataflow
/// graphs and compiled plan and checks model applicability; predict()
/// walks the light cone per parameter. Never simulates.
class VariancePredictor {
 public:
  /// Builds the circuit's dataflow and compiles its plan for the noise
  /// model.
  explicit VariancePredictor(const Circuit& circuit,
                             PredictorModel model = {});

  /// Reuses a dataflow the caller already built (it must outlive the
  /// predictor) and the circuit's compiled plan; `plan` is nullptr when
  /// the circuit could not be lowered, and the noise model then counts
  /// the raw operations. lint_circuit shares its own with QB010 this way.
  VariancePredictor(const CircuitDataflow& flow,
                    const exec::CompiledCircuit* plan,
                    PredictorModel model = {});

  /// Empty when the model applies to this circuit; otherwise info
  /// diagnostics (code QB011) explaining the refusal — e.g. custom gate
  /// blocks are not drawn from the rotation/Clifford family the
  /// 2-design average is taken over.
  [[nodiscard]] const Diagnostics& applicability() const noexcept {
    return applicability_;
  }
  [[nodiscard]] bool applicable() const noexcept {
    return applicability_.empty();
  }

  [[nodiscard]] const CircuitDataflow& flow() const noexcept {
    return *flow_;
  }

  /// Predicts every parameter's gradient variance under `angles` for an
  /// observable with the given support. Throws InvalidArgument when
  /// !applicable() or the support is empty/out of range.
  [[nodiscard]] VariancePrediction predict(
      const AngleModel& angles,
      const std::vector<std::size_t>& observable_qubits,
      PredictedCost cost) const;

  /// The same, on the support's light cone already computed as
  /// flow().backward_light_cone(observable_qubits): lint and the grid
  /// evaluate one cone under several rules or angle laws.
  [[nodiscard]] VariancePrediction predict(
      const AngleModel& angles,
      const std::vector<std::size_t>& observable_qubits,
      const CircuitDataflow::LightCone& cone, PredictedCost cost) const;

  [[nodiscard]] const PredictorModel& model() const noexcept {
    return model_;
  }

 private:
  void set_noise_floor(const exec::CompiledCircuit* plan);

  std::unique_ptr<const CircuitDataflow> owned_flow_;
  const CircuitDataflow* flow_;
  PredictorModel model_;
  Diagnostics applicability_;
  double noise_floor_ = 0.0;
  std::size_t plan_ops_ = 0;
};

// --- experiment-level prediction (the static Fig 5a) ------------------------

/// Prediction for one (qubit count, initializer) Monte-Carlo cell: the
/// ensemble mean of per-structure predictions over the *same* circuit
/// structures compute_variance_cell samples (identical RNG child-stream
/// derivation), with zero simulation.
struct CellPrediction {
  std::size_t qubits = 0;
  double variance = 0.0;          ///< ensemble-mean predicted variance
  double noise_floor = 0.0;       ///< max plan-noise floor over structures
  std::size_t structures = 0;     ///< ensemble size used
  std::size_t dead_structures = 0;  ///< structures whose sampled
                                    ///< parameter is structurally dead
};

/// One initializer's predicted curve across the qubit grid.
struct PredictionSeries {
  std::string initializer;
  std::vector<CellPrediction> cells;
  LinearFit decay_fit;  ///< ln(variance) vs qubit count
};

/// The static dual of VarianceResult: the whole Fig 5a grid predicted in
/// milliseconds.
struct PredictionGrid {
  std::vector<PredictionSeries> series;
  VarianceExperimentOptions options;

  /// Rows = qubit counts, columns = initializers, cells = predicted
  /// variance (mirrors VarianceResult::variance_table).
  [[nodiscard]] Table variance_table() const;
  /// Initializer, predicted decay slope, and improvement vs "random".
  [[nodiscard]] Table decay_table() const;
  [[nodiscard]] const PredictionSeries& find(
      const std::string& initializer) const;
};

/// Predicts every (qubit count, initializer) cell. `structures` caps each
/// cell's ensemble (0 = options.circuits_per_point). Each structure's
/// circuit, dataflow, plan and light cone are built once and shared by
/// all initializers; each cell sums its structures in ascending order.
/// Throws NotFound for unsupported initializer families — callers gate on
/// angle_model_supported.
[[nodiscard]] PredictionGrid predict_variance_grid(
    const VarianceExperimentOptions& options,
    const std::vector<std::string>& initializers,
    const PredictorModel& model = {}, std::size_t structures = 0);

/// JSON mirror of the grid (schema qbarren.predict.grid.v1): per-series
/// cells plus fitted decay slopes, for `qbarren predict --json`.
[[nodiscard]] JsonValue to_json(const PredictionGrid& grid);

// --- conformance harness ----------------------------------------------------

/// Per-initializer tolerance on |log10(predicted / measured)| per cell.
struct ConformanceBand {
  std::string initializer;
  double log10_tolerance = 1.0;
};

/// The bands the repo commits to (documented in TUTORIAL §18): the model
/// is an order-of-magnitude instrument, so bands are in decades.
[[nodiscard]] const std::vector<ConformanceBand>& default_conformance_bands();

/// One (initializer, qubit count) comparison.
struct ConformanceCell {
  std::string initializer;
  std::size_t qubits = 0;
  double predicted = 0.0;
  double measured = 0.0;
  double log10_error = 0.0;  ///< log10(predicted / measured); 0 when both 0
  double tolerance = 0.0;
  bool within = false;
};

/// Fitted decay slopes of both instruments for one initializer.
struct ConformanceFit {
  std::string initializer;
  double predicted_slope = 0.0;
  double measured_slope = 0.0;
};

struct ConformanceReport {
  std::vector<ConformanceCell> cells;
  std::vector<ConformanceFit> fits;
  /// Fig 5a ordering reproduced: "random" decays steepest and a Xavier
  /// family stays flattest, in both instruments, and every non-random
  /// initializer improves on random in both.
  bool ordering_ok = false;
  bool all_within = false;  ///< every cell inside its band
  [[nodiscard]] bool ok() const noexcept { return ordering_ok && all_within; }

  [[nodiscard]] Table table() const;      ///< per-cell comparison
  [[nodiscard]] Table slope_table() const;  ///< per-init slope comparison
  [[nodiscard]] JsonValue to_json() const;
};

/// Replays the Fig 5a grid with the Monte-Carlo pipeline and compares
/// against the closed-form prediction cell by cell. `initializers` must
/// all be model-supported registry names ("random" should be included —
/// the ordering check needs the baseline). Honors RunControl for
/// cancellation/checkpointing of the Monte-Carlo half.
[[nodiscard]] ConformanceReport predict_conformance(
    const VarianceExperimentOptions& options,
    const std::vector<std::string>& initializers,
    const std::vector<ConformanceBand>& bands = default_conformance_bands(),
    const PredictorModel& model = {}, const RunControl& control = {});

}  // namespace qbarren
