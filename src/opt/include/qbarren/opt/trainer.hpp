// Training-loop driver.
//
// Runs the paper's training protocol: starting from an initializer-supplied
// parameter vector, repeat for a fixed number of iterations
//   grad <- engine(cost), params <- optimizer.step(params, grad)
// recording the loss (and optionally the gradient norm) at every iterate.
//
// The loop is hardened for long unattended sweeps: non-finite losses and
// gradients are detected the iteration they appear and handled under a
// configurable policy, an optional wall-clock deadline bounds the run, and
// a cancellation token makes Ctrl-C interrupt a training series between
// engine evaluations instead of killing the process.
#pragma once

#include <limits>
#include <vector>

#include "qbarren/common/run.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/opt/optimizers.hpp"

namespace qbarren {

/// What train() does when the loss or a gradient component is non-finite.
enum class NonFinitePolicy {
  /// Throw NumericalError naming the iteration (default: fail loudly).
  kThrow,
  /// Record what happened, stop this series, and return the partial
  /// result with `aborted_non_finite` set — a sweep loses one series, not
  /// the whole run.
  kAbortSeries,
  /// Recompute the offending gradient once with `fallback_engine`
  /// (typically parameter-shift when the primary is adjoint); throw
  /// NumericalError if the fallback is non-finite too. A non-finite
  /// *loss* cannot be retried and aborts the series as kAbortSeries.
  kFallbackEngine,
};

struct TrainOptions {
  std::size_t max_iterations = 50;  ///< the paper's training budget
  /// Stop early when the loss drops below this (default: never).
  double target_loss = -std::numeric_limits<double>::infinity();
  bool record_gradient_norms = true;

  /// Non-finite loss/gradient handling (see NonFinitePolicy).
  NonFinitePolicy non_finite_policy = NonFinitePolicy::kThrow;
  /// Required (non-null, non-owning) when policy is kFallbackEngine.
  const GradientEngine* fallback_engine = nullptr;

  /// Wall-clock budget in seconds; when exceeded the loop stops before
  /// the next iteration and sets `hit_deadline` (default: unbounded).
  double deadline_seconds = std::numeric_limits<double>::infinity();

  /// Polled before every iteration; a set token throws Cancelled
  /// (non-owning, may be null).
  const CancellationToken* cancel = nullptr;
};

struct TrainResult {
  /// loss_history[k] = loss at iterate k; index 0 is the initial loss and
  /// the last entry the post-training loss (size = iterations + 1).
  std::vector<double> loss_history;
  /// Euclidean norms of the gradient at each of the `iterations` steps
  /// (empty when not recorded).
  std::vector<double> gradient_norm_history;
  std::vector<double> final_params;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  std::size_t iterations = 0;  ///< optimizer steps actually taken
  bool reached_target = false;
  bool aborted_non_finite = false;  ///< stopped by kAbortSeries
  bool hit_deadline = false;        ///< stopped by deadline_seconds
  std::size_t fallback_invocations = 0;  ///< kFallbackEngine retries used
};

/// Trains `cost` with the given engine/optimizer from `initial_params`.
/// The optimizer is reset() before the first step. Throws InvalidArgument
/// when initial_params does not match the circuit's parameter count, when
/// deadline_seconds is negative, or when kFallbackEngine is selected
/// without a fallback engine; NumericalError per the non-finite policy;
/// Cancelled when options.cancel fires.
[[nodiscard]] TrainResult train(const CostFunction& cost,
                                const GradientEngine& engine,
                                Optimizer& optimizer,
                                std::vector<double> initial_params,
                                const TrainOptions& options = {});

}  // namespace qbarren
