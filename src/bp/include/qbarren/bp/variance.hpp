// Gradient-variance analysis (paper §IV-C / Fig 5a / §VI-A).
//
// For every qubit count q and every initializer t, sample `circuits_per_
// point` random Eq-2 HEA circuits, initialize their parameters with t, and
// record the cost gradient with respect to the last parameter. The variance
// of those samples, plotted against q on a log scale, is the paper's
// barren-plateau signature; the OLS slope of ln Var vs q is the "variance
// decay rate", and each strategy's improvement over Random is
//   (|slope_random| - |slope_t|) / |slope_random| * 100 %.
//
// The same 200 circuit *structures* are reused across initializers (only
// the parameter draws differ), which removes structure-sampling noise from
// the cross-initializer comparison. VarianceExperiment::run also shares
// the work: each circuit and its compiled plan are built once per qubit
// count and read by all of that count's initializer cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/init/initializers.hpp"

namespace qbarren {

class GradientEngine;  // grad/engine.hpp; forward-declared to keep this
                       // header below the grad layer

/// Which parameter's derivative is sampled. The paper uses the last
/// parameter (kLast). For observables with small support (e.g. the ZZ
/// ablation cost) the last rotation sits on qubit q-1, *outside the
/// observable's light cone*: everything applied after it (the trailing CZ
/// ladder) commutes with Z_0 Z_1, so its gradient is identically zero for
/// q > 2. kFirst picks the first parameter instead, which has the whole
/// circuit between it and the measurement.
enum class GradientParameter {
  kLast,
  kMiddle,
  kFirst,
};

struct VarianceExperimentOptions {
  std::vector<std::size_t> qubit_counts = {2, 4, 6, 8, 10};  ///< paper's Q
  std::size_t circuits_per_point = 200;                      ///< paper's count
  /// The paper requires "substantial depth" for the variance analysis but
  /// never quotes the number (Fig 1's landscapes use 100). Depth 50 best
  /// reproduces the paper's reported improvement percentages (see
  /// bench_ablation_depth for the sweep); by depth >= 100 the non-Xavier
  /// strategies' angle variances (~1/q) are large enough that circuits
  /// approach a 2-design anyway and their improvement over random shrinks.
  std::size_t layers = 50;
  CostKind cost = CostKind::kGlobalZero;
  std::uint64_t seed = 42;
  bool entangle = true;       ///< CZ ladder on (off only for ablations)
  /// Engine used for the single-parameter derivative. The paper's method
  /// is the parameter-shift rule; "adjoint" and "finite-difference" give
  /// identical values (cross-checked in tests).
  std::string gradient_engine = "parameter-shift";
  GradientParameter which_parameter = GradientParameter::kLast;  ///< paper
  EntanglerGate entangler = EntanglerGate::kCz;                  ///< Eq 1
  EntanglerTopology topology = EntanglerTopology::kLinear;
  /// Retain the raw gradient samples in each VariancePoint (needed for
  /// bootstrap confidence intervals; off by default to keep results lean).
  bool keep_samples = false;
};

/// Canonical single-line encoding of every option that shapes the
/// experiment's results, generated from kVarianceOptionsTable
/// (bp/options_table.hpp). Checkpoints are keyed by this string, so a
/// checkpoint written under different options is rejected on resume.
[[nodiscard]] std::string options_fingerprint(
    const VarianceExperimentOptions& options);

/// Circuit i of qubit count `qubit_counts[qubit_index]`: the Eq-2 HEA
/// whose rotation axes are drawn from the cell plan's
/// structure_stream_path(qubit_index, i) (bp/cell_plan.hpp). That stream
/// does not involve the initializer, so every initializer samples this
/// circuit. The one place the ansatz options are derived.
[[nodiscard]] Circuit variance_structure(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    std::size_t i);

/// Index of the parameter whose derivative a variance cell samples.
[[nodiscard]] std::size_t sampled_parameter(const Circuit& circuit,
                                            GradientParameter which);

/// Computes the gradient samples of one (qubit count, initializer) cell of
/// the variance_cell_plan — the exact computation VarianceExperiment::run
/// performs for it (run shares each circuit and its plan across a qubit
/// count's cells; this function builds its own, with the same bits). The
/// cell's RNG streams depend only on (options.seed, qubit_index,
/// initializer_index), so any process — an executor worker thread or a
/// serve worker process on another machine — reproduces the in-process
/// samples bit-for-bit. `ctx`, when non-null, is polled for cancellation
/// between circuits. Throws NumericalError on a non-finite sample.
[[nodiscard]] std::vector<double> compute_variance_cell(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    const Initializer& initializer, std::size_t initializer_index,
    const GradientEngine& engine, const CellContext* ctx = nullptr);

/// One (qubit count, initializer) cell of the experiment.
struct VariancePoint {
  std::size_t qubits = 0;
  double variance = 0.0;       ///< Var over the sampled gradients
  Summary gradient_summary;    ///< full sample summary (mean, min, max, ...)
  std::vector<double> samples; ///< raw gradients (only when keep_samples)
};

/// One initializer's curve across qubit counts plus its decay fit.
struct VarianceSeries {
  std::string initializer;
  std::vector<VariancePoint> points;
  LinearFit decay_fit;  ///< ln Var vs qubit count (positive-variance points)
};

struct VarianceResult {
  std::vector<VarianceSeries> series;
  VarianceExperimentOptions options;
  /// Cells that failed within the run's failure budget (sorted by cell
  /// key; empty on a clean run). A failed cell's point keeps its qubit
  /// count but carries NaN statistics.
  std::vector<CellFailure> failures;

  /// Fig 5a data: one row per qubit count, one column per initializer,
  /// cells = gradient variance (scientific notation).
  [[nodiscard]] Table variance_table() const;

  /// §VI-A data: initializer, decay slope, R^2, and improvement vs the
  /// "random" series when present.
  [[nodiscard]] Table decay_table() const;

  /// Improvement of `initializer` over "random" in percent. Throws
  /// NotFound when either series is missing, NumericalError when the
  /// random slope is ~0.
  [[nodiscard]] double improvement_percent(
      const std::string& initializer) const;

  /// True when a "random" series exists and its decay fit is a usable
  /// improvement baseline (>= 2 fitted points, finite slope with
  /// magnitude > ~0) — i.e. improvement_percent() will not throw. False
  /// on failure-degenerate or single-qubit-count runs, where reports
  /// render the improvement as null / "n/a" instead of a value.
  [[nodiscard]] bool has_improvement_baseline() const noexcept;

  [[nodiscard]] const VarianceSeries& find(
      const std::string& initializer) const;
};

/// Percentile bootstrap confidence interval on a decay slope.
struct SlopeConfidenceInterval {
  double point = 0.0;   ///< the full-sample slope
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.0;
};

/// Bootstrap CI for a series' ln-Var-vs-qubits slope: resamples the raw
/// gradient samples within every qubit point (requires keep_samples),
/// refits the slope per replicate, and takes percentile bounds. Throws
/// InvalidArgument when samples are missing, confidence is outside (0,1),
/// or resamples < 10.
[[nodiscard]] SlopeConfidenceInterval bootstrap_decay_ci(
    const VarianceSeries& series, std::size_t resamples = 500,
    double confidence = 0.95, std::uint64_t seed = 1234);

/// Positional gradient-variance analysis: Var[dC/dtheta_k] as a function
/// of where parameter k sits in the circuit. McClean et al. prove the
/// exponential decay for parameters "deep" in a 2-design; parameters near
/// the measured end of a *local* observable's light cone behave
/// differently. This analysis computes the variance at several fractional
/// positions of the parameter vector (0 = first parameter, 1 = last) in
/// one pass per circuit via adjoint full gradients.
struct PositionalVarianceResult {
  std::vector<double> fractions;
  std::vector<std::size_t> qubit_counts;
  /// variances[f][q] for fraction index f and qubit-count index q.
  std::vector<std::vector<double>> variances;
  /// Cells that failed within the run's failure budget (sorted by cell
  /// key); the failed qubit count's column holds NaN.
  std::vector<CellFailure> failures;

  [[nodiscard]] Table table() const;
};

[[nodiscard]] PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0});

/// As above with resilient-run hooks: one checkpoint cell per qubit count,
/// cancellation polled per sampled circuit.
[[nodiscard]] PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions, const RunControl& control);

/// Fingerprint of a positional-variance run (includes the initializer name
/// and the fraction grid on top of the base options).
[[nodiscard]] std::string positional_fingerprint(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    const std::vector<double>& fractions);

class VarianceExperiment {
 public:
  /// Throws InvalidArgument on invalid options, including a qubit count
  /// that repeats (its cells would share keys), and NotFound on an
  /// unknown gradient engine.
  explicit VarianceExperiment(VarianceExperimentOptions options);

  /// Runs the experiment for the given initializers (non-owning pointers,
  /// all non-null).
  [[nodiscard]] VarianceResult run(
      const std::vector<const Initializer*>& initializers) const;

  /// As above with resilient-run hooks: cells are checkpointed per
  /// (qubit count, initializer) under their variance_cell_plan keys,
  /// completed cells are restored instead of recomputed on resume, and
  /// cancellation is polled per sampled circuit (completed cells are
  /// already flushed when Cancelled propagates). A resumed run is
  /// bit-for-bit identical to an uninterrupted one.
  [[nodiscard]] VarianceResult run(
      const std::vector<const Initializer*>& initializers,
      const RunControl& control) const;

  /// Runs with the paper's six strategies (§IV, set T).
  [[nodiscard]] VarianceResult run_paper_set(
      FanMode mode = FanMode::kLayerTensor) const;
  [[nodiscard]] VarianceResult run_paper_set(FanMode mode,
                                             const RunControl& control) const;

  [[nodiscard]] const VarianceExperimentOptions& options() const noexcept {
    return options_;
  }

 private:
  VarianceExperimentOptions options_;
};

}  // namespace qbarren
