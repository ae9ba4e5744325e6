// Resilient-run infrastructure: atomic file output, cooperative
// cancellation, and the control block threaded through long experiments.
//
// The paper's sweeps (200 circuits x 6 initializers x 5 qubit counts, plus
// multi-seed training) run for hours; an all-or-nothing loop discards
// everything on a crash or Ctrl-C. The pieces here make such runs durable:
//   * write_file_atomic  — write-temp + fsync + rename, so readers (and a
//     killed process) never observe a truncated file;
//   * CancellationToken  — a cooperative flag experiments poll between
//     units of work, optionally wired to SIGINT/SIGTERM;
//   * RunControl         — the optional bundle of cancellation, checkpoint
//     store, and progress callback accepted by every experiment runner.
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "qbarren/common/error.hpp"

namespace qbarren {

class Checkpoint;  // checkpoint.hpp; forward-declared to keep this header light

/// Thrown when a run stops because cancellation was requested. Completed
/// checkpoint cells have already been flushed when this propagates out of
/// an experiment runner, so catching it at the top level and exiting is a
/// durable interrupt.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// Writes `content` to `path` atomically: the bytes go to a temporary file
/// in the same directory, are fsync'ed, and the temporary is rename(2)'d
/// over the destination. Readers either see the old complete file or the
/// new complete file, never a mix or a truncation. Throws qbarren::Error
/// on any I/O failure (the temporary is removed on the failure path).
void write_file_atomic(const std::string& path, std::string_view content);

/// Cooperative cancellation flag. Thread- and signal-safe: request_cancel
/// is async-signal-safe (lock-free atomic store), so it can be called from
/// a signal handler while an experiment polls cancelled() between cells.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void request_cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Throws Cancelled carrying `context` when cancellation was requested.
  void throw_if_cancelled(const std::string& context) const;

 private:
  std::atomic<bool> cancelled_{false};
  static_assert(std::atomic<bool>::is_always_lock_free,
                "request_cancel must be async-signal-safe");
};

/// RAII: while alive, SIGINT and SIGTERM request cancellation on the given
/// token instead of killing the process; the previous handlers are
/// restored on destruction. At most one may be active at a time (the
/// constructor throws InvalidArgument otherwise).
///
/// Threading contract: construct and destroy this on the main thread only,
/// before worker threads that observe the token start and after they are
/// joined. The handler itself may run on any thread (signal disposition is
/// process-wide) and only performs an async-signal-safe atomic store;
/// worker threads never install handlers — they poll the shared token,
/// which is safe concurrently from any number of threads.
class ScopedSignalCancellation {
 public:
  explicit ScopedSignalCancellation(CancellationToken& token);
  ~ScopedSignalCancellation();
  ScopedSignalCancellation(const ScopedSignalCancellation&) = delete;
  ScopedSignalCancellation& operator=(const ScopedSignalCancellation&) = delete;

};

/// One completed experiment cell, reported through RunControl::progress.
struct RunProgress {
  std::string cell;              ///< cell key, e.g. "q=8/init=random"
  std::size_t completed = 0;     ///< cells finished so far (including this)
  std::size_t total = 0;         ///< total cells in the run
  bool from_checkpoint = false;  ///< true when restored rather than computed
};

/// Optional hooks threaded through every experiment runner. Default
/// construction is a no-op control block, so `run(inits, RunControl{})`
/// behaves exactly like the hook-free overload.
struct RunControl {
  /// Polled between units of work; a set token makes the runner flush all
  /// completed checkpoint cells and throw Cancelled.
  const CancellationToken* cancel = nullptr;

  /// When set, completed cells are stored (and flushed atomically) as the
  /// run progresses, and cells already present are restored instead of
  /// recomputed. The store's fingerprint must match the experiment's
  /// options fingerprint (verified by the runner). Cells are keyed as the
  /// runner's cell plan (bp/cell_plan.hpp) names them.
  Checkpoint* checkpoint = nullptr;

  /// When true, the runner only *assembles*: cells present in the
  /// checkpoint are restored as usual, but a cell absent from it is
  /// recorded as a kCancelled failure ("not restored") instead of being
  /// computed — nothing executes, so assembly is instant and cannot fail
  /// the way a computation can. Requires `checkpoint` to be set. Restore-
  /// only failures bypass the executor and therefore do not count against
  /// max_cell_failures. This is how the serve layer turns a bag of
  /// worker-computed cells into the exact result object (tables, fits,
  /// JSON) a serial in-process run would have produced.
  bool restore_only = false;

  /// Called after every completed (or restored) cell. May be invoked from
  /// a worker thread when jobs > 1 (calls are serialized under the
  /// runner's deposit lock, so the callback itself needs no locking).
  std::function<void(const RunProgress&)> progress;

  // --- parallel execution (forwarded to qbarren::Executor) -------------

  /// Worker threads for cell-parallel runners; 0 = hardware concurrency.
  /// The job count changes wall-clock time only, never results: cells
  /// draw from independent RNG child streams and deposit by key.
  std::size_t jobs = 1;

  /// Soft per-cell deadline in seconds (default unbounded). A cell that
  /// outlives it is cancelled cooperatively and recorded as a timeout
  /// failure.
  double cell_timeout_seconds = std::numeric_limits<double>::infinity();

  /// Failed cells tolerated before the run aborts. 0 (default) rethrows
  /// the first failure with its original type, exactly like a serial
  /// loop; K > 0 lets the run complete with up to K failed cells
  /// (reported in the result's failure list) and throws
  /// FailureBudgetExceeded beyond that.
  std::size_t max_cell_failures = 0;

  /// Attempts per cell for retryable (non-finite) failures; retries
  /// switch to the parameter-shift fallback path. 1 = no retry.
  std::size_t max_cell_attempts = 1;
};

}  // namespace qbarren
