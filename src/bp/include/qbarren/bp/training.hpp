// Training analysis (paper §IV-D / §V / Fig 5b-c).
//
// Trains the Eq 3 hardware-efficient ansatz (RX+RY per qubit per layer, CZ
// ladder) to learn the identity function under the Eq 4 global cost, once
// per initializer, with a fixed iteration budget. The loss curves are the
// paper's Fig 5b (gradient descent) and Fig 5c (Adam).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/init/initializers.hpp"
#include "qbarren/opt/trainer.hpp"

namespace qbarren {

struct TrainingExperimentOptions {
  std::size_t qubits = 10;      ///< paper's width
  std::size_t layers = 5;       ///< paper's depth (145 gates, 100 params)
  std::size_t iterations = 50;  ///< paper's budget
  double learning_rate = 0.1;   ///< paper's step size
  std::string optimizer = "gradient-descent";  ///< or "adam" (Fig 5c)
  /// Engine for the training gradient. "adjoint" computes the exact same
  /// gradients as the paper's parameter-shift at a fraction of the cost;
  /// set "parameter-shift" to match the paper's mechanics literally.
  std::string gradient_engine = "adjoint";
  CostKind cost = CostKind::kGlobalZero;
  std::uint64_t seed = 7;
  /// Non-finite loss/gradient handling for each series (see trainer.hpp).
  /// Under kFallbackEngine the experiment supplies a parameter-shift
  /// fallback automatically.
  NonFinitePolicy non_finite_policy = NonFinitePolicy::kThrow;
  /// Wall-clock budget per training series, in seconds (default
  /// unbounded); forwarded to TrainOptions::deadline_seconds.
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

/// Canonical single-line encoding of every option that shapes the
/// experiment's results (checkpoint staleness key), generated from
/// kTrainingOptionsTable (bp/options_table.hpp).
[[nodiscard]] std::string options_fingerprint(
    const TrainingExperimentOptions& options);

/// The Eq-3 circuit + cost observable a training run with these options
/// builds — the fixed context every per-initializer cell shares.
[[nodiscard]] CostFunction make_training_cost(
    const TrainingExperimentOptions& options);

/// Trains one (options, initializer) cell of the training_cell_plan
/// exactly as TrainingExperiment::run does. The cell's parameter stream
/// is training_stream_path(initializer_index) from options.seed, so any
/// process reproduces the in-process series bit-for-bit. On a
/// retry (ctx.attempt > 0) a kThrow non-finite policy is escalated to
/// kFallbackEngine with a parameter-shift fallback — a serve worker
/// redispatched after a non-finite failure passes the attempt through
/// ctx to reproduce the in-process retry semantics.
[[nodiscard]] TrainResult run_training_cell(
    const TrainingExperimentOptions& options, const CostFunction& cost,
    const Initializer& initializer, std::size_t initializer_index,
    const CellContext& ctx);

/// Full TrainResult <-> checkpoint-cell round trip (hexfloat storage, so
/// restoration is bit-exact). The serve layer uses these to move training
/// cells between worker processes and the result cache.
[[nodiscard]] CheckpointCell checkpoint_cell_from_train_result(
    const TrainResult& result);
[[nodiscard]] TrainResult train_result_from_checkpoint_cell(
    const CheckpointCell& cell);

struct TrainingSeries {
  std::string initializer;
  TrainResult result;
};

struct TrainingResult {
  std::vector<TrainingSeries> series;
  TrainingExperimentOptions options;
  /// Cells that failed within the run's failure budget (sorted by cell
  /// key; empty on a clean run). A failed series keeps its initializer
  /// name and carries a NaN final loss with empty histories.
  std::vector<CellFailure> failures;

  /// Loss-vs-iteration table (Fig 5b/5c data): one row per recorded
  /// iteration (subsampled by `stride`), one column per initializer. Rows
  /// cover the longest history; series with shorter (or empty, for failed
  /// cells) histories render NaN cells past their end.
  [[nodiscard]] Table loss_table(std::size_t stride = 1) const;

  /// Final-loss summary: initializer, initial loss, final loss, loss drop.
  [[nodiscard]] Table summary_table() const;

  [[nodiscard]] const TrainingSeries& find(
      const std::string& initializer) const;
};

class TrainingExperiment {
 public:
  explicit TrainingExperiment(TrainingExperimentOptions options);

  [[nodiscard]] TrainingResult run(
      const std::vector<const Initializer*>& initializers) const;

  /// As above with resilient-run hooks: one checkpoint cell per
  /// training_cell_plan cell holding the full TrainResult, restored
  /// instead of retrained on resume; cancellation is polled between
  /// series and between training iterations (completed cells are already
  /// flushed when Cancelled propagates). A resumed run is bit-for-bit
  /// identical to an uninterrupted one.
  [[nodiscard]] TrainingResult run(
      const std::vector<const Initializer*>& initializers,
      const RunControl& control) const;

  [[nodiscard]] TrainingResult run_paper_set(
      FanMode mode = FanMode::kLayerTensor) const;
  [[nodiscard]] TrainingResult run_paper_set(FanMode mode,
                                             const RunControl& control) const;

  [[nodiscard]] const TrainingExperimentOptions& options() const noexcept {
    return options_;
  }

 private:
  TrainingExperimentOptions options_;
};

// --- multi-seed sweep --------------------------------------------------------
//
// The paper's Fig 5b/c are single training runs; a sweep over independent
// seeds shows the initialization effect is not a seed artifact and puts
// error bars on the final losses.

struct TrainingSweepOptions {
  TrainingExperimentOptions base;   ///< seed field is the sweep's root seed
  std::size_t repetitions = 5;      ///< independent seeds per initializer
};

struct TrainingSweepSeries {
  std::string initializer;
  std::vector<double> final_losses;  ///< one per repetition
  Summary final_loss_summary;
};

struct TrainingSweepResult {
  std::vector<TrainingSweepSeries> series;
  TrainingSweepOptions options;
  /// Cells that failed within the run's failure budget (sorted by cell
  /// key); a failed (repetition, initializer) cell leaves NaN in that
  /// repetition's slot of final_losses.
  std::vector<CellFailure> failures;

  /// initializer, mean/min/max final loss, stddev across seeds.
  [[nodiscard]] Table summary_table() const;
};

/// Fingerprint of a sweep (repetitions + the base experiment's options).
[[nodiscard]] std::string options_fingerprint(
    const TrainingSweepOptions& options);

/// Runs the training experiment `repetitions` times, under the
/// sweep_cell_plan's repetition seeds.
[[nodiscard]] TrainingSweepResult run_training_sweep(
    const std::vector<const Initializer*>& initializers,
    const TrainingSweepOptions& options);

/// As above with resilient-run hooks: cells are keyed per (repetition,
/// initializer) by the sweep_cell_plan, so an interrupted sweep resumes at
/// the exact pair it stopped at.
[[nodiscard]] TrainingSweepResult run_training_sweep(
    const std::vector<const Initializer*>& initializers,
    const TrainingSweepOptions& options, const RunControl& control);

}  // namespace qbarren
