// Tests for the analytic barren-plateau predictor (analysis/predict.hpp):
// closed-form angle laws, the refusal paths (custom gates, beta), dead
// and identity predictions, the FP-noise-floor model, and — the central
// contract — Monte-Carlo conformance over the paper's Fig 5a grid for
// every model-supported initializer under all three cost geometries.
//
// The conformance tests run the repo's real Monte-Carlo pipeline at a
// reduced 50 circuits/point (deterministic seeds; ~1 s per grid), so a
// model or calibration regression fails here before it ships a wrong
// static verdict through QB011/QN120 or `qbarren predict`.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "qbarren/analysis/lint.hpp"
#include "qbarren/analysis/predict.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

/// The six strategies Fig 5a plots.
const std::vector<std::string> kPaperSet = {"random",        "xavier-normal",
                                            "xavier-uniform", "he",
                                            "lecun",          "orthogonal"};

/// Every registry name the model supports (initializer_names() minus
/// "beta", whose non-zero-mean law the model refuses).
std::vector<std::string> supported_names() {
  std::vector<std::string> names;
  for (const std::string& name : initializer_names()) {
    if (angle_model_supported(name)) names.push_back(name);
  }
  return names;
}

VarianceExperimentOptions reduced_grid() {
  VarianceExperimentOptions options;  // paper defaults: q = 2..10, L = 50
  options.circuits_per_point = 50;
  return options;
}

Circuit paper_circuit(std::size_t qubits, std::size_t layers = 50) {
  Rng rng(3);
  VarianceAnsatzOptions options;
  options.layers = layers;
  return variance_ansatz(qubits, rng, options);
}

// --- angle laws --------------------------------------------------------------

TEST(AngleModel, KnownLawsAndRefusals) {
  const Circuit circuit = paper_circuit(4, 6);

  const auto random = angle_model_for("random", circuit);
  ASSERT_TRUE(random.has_value());
  EXPECT_NEAR(random->variance, M_PI * M_PI / 3.0, 1e-12);

  const auto zeros = angle_model_for("zeros", circuit);
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(zeros->variance, 0.0);

  // Fan-based laws shrink with the register; Xavier sees fan_in = qubits
  // and fan_out = layers under the layer-tensor convention.
  const auto xavier = angle_model_for("xavier-normal", circuit);
  ASSERT_TRUE(xavier.has_value());
  EXPECT_NEAR(xavier->variance, 2.0 / (4.0 + 6.0), 1e-12);
  const auto he = angle_model_for("he", circuit);
  ASSERT_TRUE(he.has_value());
  EXPECT_NEAR(he->variance, 2.0 / 4.0, 1e-12);

  // beta's angles are not zero-mean: no closed-form law, by design.
  EXPECT_FALSE(angle_model_for("beta", circuit).has_value());
  EXPECT_FALSE(angle_model_supported("beta"));
  EXPECT_FALSE(angle_model_for("no-such-strategy", circuit).has_value());

  for (const std::string& name : kPaperSet) {
    EXPECT_TRUE(angle_model_supported(name)) << name;
  }
}

// --- predictor applicability and structure -----------------------------------

TEST(Predictor, RefusesCustomGatesWithDiagnosticNotANumber) {
  Circuit circuit(2);
  circuit.add_rotation(gates::Axis::kX, 0);
  circuit.add_custom_gate("id", ComplexMatrix::identity(2), 1);

  const VariancePredictor predictor(circuit);
  EXPECT_FALSE(predictor.applicable());
  ASSERT_FALSE(predictor.applicability().empty());
  EXPECT_EQ(predictor.applicability().front().code, "QB011");
  EXPECT_EQ(predictor.applicability().front().severity, Severity::kInfo);

  const auto angles = angle_model_for("random", circuit);
  ASSERT_TRUE(angles.has_value());
  EXPECT_THROW((void)predictor.predict(*angles, {0, 1},
                                       PredictedCost::kGlobalProjector),
               InvalidArgument);
}

TEST(Predictor, DeadParameterPredictsExactlyZero) {
  // Eq-2 circuit vs Z0 Z1: the last rotation sits outside the
  // observable's backward light cone (the QB001 configuration).
  const Circuit circuit = paper_circuit(8, 6);
  const VariancePredictor predictor(circuit);
  ASSERT_TRUE(predictor.applicable());

  const auto angles = angle_model_for("random", circuit);
  ASSERT_TRUE(angles.has_value());
  const VariancePrediction prediction =
      predictor.predict(*angles, {0, 1}, PredictedCost::kPauli);

  ASSERT_EQ(prediction.parameters.size(), circuit.num_parameters());
  const ParameterPrediction& last = prediction.parameters.back();
  EXPECT_FALSE(last.alive);
  EXPECT_EQ(last.regime, VarianceRegime::kDead);
  EXPECT_EQ(last.variance, 0.0);
  // Alive parameters still predict nonzero.
  EXPECT_GT(prediction.min_alive_variance(), 0.0);
}

TEST(Predictor, GlobalCostDecaysExponentiallyInWidth) {
  // The deepest parameter's predicted variance under the global cost
  // follows the Haar 2^(-2w) law once mixing saturates: each +2 qubits
  // costs a factor ~16.
  const auto predict_last = [](std::size_t qubits) {
    const Circuit circuit = paper_circuit(qubits);
    const VariancePredictor predictor(circuit);
    const auto angles = angle_model_for("random", circuit);
    std::vector<std::size_t> support(qubits);
    for (std::size_t q = 0; q < qubits; ++q) support[q] = q;
    return predictor.predict(*angles, support,
                             PredictedCost::kGlobalProjector)
        .parameters.back()
        .variance;
  };
  const double v6 = predict_last(6);
  const double v8 = predict_last(8);
  const double v10 = predict_last(10);
  EXPECT_NEAR(v6 / v8, 16.0, 1e-6);
  EXPECT_NEAR(v8 / v10, 16.0, 1e-6);
}

TEST(Predictor, NoiseFloorFlagsWidthsMonteCarloCannotMeasure) {
  // At q = 44 the predicted 2-design variance (~c0 * 2^(-88)) sinks below
  // the compiled plan's accumulated rounding-error bound; at the paper's
  // q = 10 it stays far above. Static only — no 2^44 state exists.
  const auto floor_gap = [](std::size_t qubits) {
    const Circuit circuit = paper_circuit(qubits, 6);
    const VariancePredictor predictor(circuit);
    const auto angles = angle_model_for("random", circuit);
    std::vector<std::size_t> support(qubits);
    for (std::size_t q = 0; q < qubits; ++q) support[q] = q;
    const VariancePrediction p = predictor.predict(
        *angles, support, PredictedCost::kGlobalProjector);
    EXPECT_GT(p.noise_floor, 0.0);
    // Every gate counts, each CZ of a ladder included, though lowering
    // runs each ladder as one kernel op.
    EXPECT_EQ(p.plan_ops, circuit.num_operations());
    return p.min_alive_variance() - p.noise_floor;
  };
  EXPECT_GT(floor_gap(10), 0.0);
  EXPECT_LT(floor_gap(44), 0.0);
}

// --- the static Fig 5a -------------------------------------------------------

TEST(PredictGrid, ReproducesFig5aOrderingWithZeroSimulation) {
  const PredictionGrid grid =
      predict_variance_grid(reduced_grid(), kPaperSet, {}, 16);
  ASSERT_EQ(grid.series.size(), kPaperSet.size());

  const double random_slope = grid.find("random").decay_fit.slope;
  // Fully mixed: the exact Haar decay d ln V / dq = -2 ln 2.
  EXPECT_NEAR(random_slope, -2.0 * std::log(2.0), 1e-6);

  // Every alternative decays no faster than random, and the Xavier
  // family stays flattest (the paper's headline ordering).
  double flattest = std::abs(random_slope);
  std::string flattest_name = "random";
  for (const std::string& name : kPaperSet) {
    const double slope = std::abs(grid.find(name).decay_fit.slope);
    EXPECT_LE(slope, std::abs(random_slope) + 1e-9) << name;
    if (slope < flattest) {
      flattest = slope;
      flattest_name = name;
    }
  }
  EXPECT_EQ(flattest_name.rfind("xavier", 0), 0u) << flattest_name;
}

TEST(PredictGrid, CellsAreDeterministicAndStructureCapped) {
  const VarianceExperimentOptions options = reduced_grid();
  const CellPrediction a = predict_variance_cell(options, 2, "he", {}, 8);
  const CellPrediction b = predict_variance_cell(options, 2, "he", {}, 8);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.structures, 8u);
  EXPECT_THROW((void)predict_variance_cell(options, 0, "beta"), NotFound);
}

// --- Monte-Carlo conformance (the committed calibration contract) ------------

void expect_conformant(const ConformanceReport& report) {
  for (const ConformanceCell& cell : report.cells) {
    EXPECT_TRUE(cell.within)
        << cell.initializer << " q=" << cell.qubits << ": predicted "
        << cell.predicted << " vs measured " << cell.measured << " ("
        << cell.log10_error << " decades, band " << cell.tolerance << ")";
  }
  EXPECT_TRUE(report.all_within);
  EXPECT_TRUE(report.ordering_ok);
  EXPECT_TRUE(report.ok());
}

TEST(PredictConformance, GlobalCostEverySupportedInitializer) {
  // The paper's Eq 4 cost over q = 2..10 for all 11 supported
  // strategies, zeros included (both instruments report exactly 0 there:
  // theta = 0 is a stationary point of this ansatz).
  const ConformanceReport report =
      predict_conformance(reduced_grid(), supported_names());
  EXPECT_EQ(report.cells.size(), supported_names().size() * 5);
  expect_conformant(report);
}

TEST(PredictConformance, LocalCostEverySupportedInitializer) {
  VarianceExperimentOptions options = reduced_grid();
  options.cost = CostKind::kLocalZero;
  expect_conformant(predict_conformance(options, supported_names()));
}

TEST(PredictConformance, PauliCostEverySupportedInitializer) {
  VarianceExperimentOptions options = reduced_grid();
  options.cost = CostKind::kPauliZZ;
  // The paper samples the last parameter, which is structurally dead
  // under Z0 Z1 (QB001); differentiate the first — on the observable's
  // support — so the comparison measures the Pauli plateau, not 0 == 0.
  options.which_parameter = GradientParameter::kFirst;
  expect_conformant(predict_conformance(options, supported_names()));
}

TEST(PredictConformance, RefusesUnsupportedInitializer) {
  EXPECT_THROW(
      (void)predict_conformance(reduced_grid(), {"random", "beta"}),
      NotFound);
}

TEST(PredictConformance, JsonRoundTripCarriesVerdicts) {
  VarianceExperimentOptions options = reduced_grid();
  options.qubit_counts = {2, 4};
  options.circuits_per_point = 20;
  const ConformanceReport report =
      predict_conformance(options, {"random", "he"});
  const JsonValue json = report.to_json();
  EXPECT_EQ(json.at("schema").as_string(), "qbarren.predict.conformance.v1");
  EXPECT_EQ(json.at("cells").size(), report.cells.size());
  EXPECT_EQ(json.at("slopes").size(), report.fits.size());
  EXPECT_EQ(json.at("ok").as_bool(), report.ok());
}

}  // namespace
}  // namespace qbarren
