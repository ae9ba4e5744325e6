// The experiment service: admission control, a process-isolated worker
// pool, hard-kill watchdogs, crash retries, and a shared result cache.
//
// ExperimentService::run_request takes one RequestSpec through the full
// robustness pipeline:
//
//   1. *Admission*: the PR 3 lint preflight runs on the spec's options; an
//      error-severity finding rejects the request (exit 3) with the
//      QB/QP diagnostic JSON, before any worker burns a core.
//   2. *Cache*: cells already in the content-addressed result cache
//      (keyed "<options-fingerprint>|<cell-key>") are restored, not
//      recomputed — identical cells dedupe across requests and across
//      service restarts when the cache is file-backed.
//   3. *Sharding*: remaining cells are dispatched one at a time to a pool
//      of `qbarren worker` processes. Per-cell RNG child streams make the
//      shard layout irrelevant: any worker count produces byte-identical
//      results.
//   4. *Recovery*: a worker that dies (crash) or is SIGKILLed by the hard
//      watchdog (hang) loses only its in-flight cell, which is retried on
//      a fresh worker with capped exponential backoff — at the *same*
//      engine attempt, so the replay is bit-identical. Non-finite
//      failures retry with the fallback engine, exactly like the
//      in-process executor. Budgets bound both: per-request cell-failure
//      and worker-crash budgets abort the request (exit 1 / exit 4)
//      without taking the service down.
//   5. *Assembly*: completed cells are restored through the in-process
//      runner in restore-only mode, so the final result JSON is
//      byte-identical to a serial in-process run — at any shard count,
//      under any crash/retry schedule.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/json.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/serve/protocol.hpp"

namespace qbarren::serve {

struct ServiceOptions {
  /// Worker-pool width. Any value yields byte-identical results.
  std::size_t workers = 2;

  /// Command line for worker processes. Empty resolves to
  /// {"/proc/self/exe", "worker"} at pool start — the service re-executes
  /// its own binary in worker mode.
  std::vector<std::string> worker_argv;

  /// Backing file of the shared result cache; "" keeps it in memory.
  /// A damaged file is quarantined (Checkpoint::open_salvaging), never
  /// fatal.
  std::string cache_path;

  /// Hard watchdog: a worker whose in-flight cell has been running this
  /// long since its start marker is SIGKILLed and the cell retried
  /// elsewhere. Infinity disables the watchdog.
  double worker_kill_seconds = std::numeric_limits<double>::infinity();

  /// Crash redispatches allowed per cell (worker death, not non-finite).
  /// A cell whose worker dies more than this many times fails terminally
  /// as crashed/killed.
  std::size_t max_crash_attempts = 3;

  /// Worker deaths tolerated per request before the whole request aborts
  /// with kExitWorkerCrashBudget.
  std::size_t max_worker_crashes = 8;

  /// Exponential backoff for crash retries: delay doubles from `initial`
  /// per crash of the same cell, capped at `max`.
  double backoff_initial_seconds = 0.01;
  double backoff_max_seconds = 0.5;

  /// Test hook: when set and returning true for a cell key, the service
  /// SIGKILLs the worker the instant that cell's start marker arrives —
  /// a deterministic stand-in for an external `kill -9` mid-cell.
  std::function<bool(const std::string& cell_key)> kill_on_cell_start;
};

struct RequestOutcome {
  enum class Status {
    kOk,           ///< all cells accounted for within budget
    kRejected,     ///< admission preflight found an error-severity issue
    kFailed,       ///< cell-failure budget or deadline exceeded
    kCrashBudget,  ///< worker deaths exceeded max_worker_crashes
    kDrained,      ///< drain token fired with cells still pending
  };

  Status status = Status::kOk;
  /// Matching qbarren/common/exit_codes.hpp constant.
  int exit_code = 0;

  std::size_t cells = 0;          ///< total cells in the request
  std::size_t cached = 0;         ///< restored from the result cache
  std::size_t computed = 0;       ///< computed by workers this request
  std::size_t retries = 0;        ///< redispatches (crash + non-finite)
  std::size_t worker_deaths = 0;  ///< worker processes lost this request

  /// Terminal per-cell failures (PR 2 taxonomy + crashed/killed), sorted
  /// by cell key.
  std::vector<CellFailure> failures;

  /// Assembled experiment result (to_json(VarianceResult|TrainingResult))
  /// when the request ran to completion; null otherwise.
  JsonValue result;
};

/// "ok" / "rejected" / "failed" / "crash-budget" / "drained".
[[nodiscard]] const char* request_status_name(
    RequestOutcome::Status status) noexcept;

class ExperimentService {
 public:
  /// Streaming event sink: called with one JSON object per protocol event
  /// ("admitted", "cell", "rejected", "done"), in order, from the thread
  /// running run_request.
  using EventSink = std::function<void(const JsonValue&)>;

  explicit ExperimentService(ServiceOptions options);
  ~ExperimentService();
  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Runs one request to a terminal state. Blocks the calling thread; the
  /// worker pool (started lazily on first call) does the computing.
  /// `drain`, when cancelled, lets in-flight cells finish (their results
  /// land in the cache) but dispatches nothing new — a request cut short
  /// this way reports kDrained/130.
  RequestOutcome run_request(const RequestSpec& spec,
                             const EventSink& sink = nullptr,
                             const CancellationToken* drain = nullptr);

  /// What open_salvaging found in the cache file at construction.
  [[nodiscard]] const CheckpointSalvage& cache_salvage() const noexcept;

  /// PIDs of the live worker processes (empty before the pool starts).
  [[nodiscard]] std::vector<long> worker_pids() const;

  /// Stops the pool: closes job pipes (workers exit on EOF), joins reader
  /// threads, reaps children. Idempotent; the destructor calls it.
  void shutdown();

  static constexpr const char* kCacheFingerprint = "qbarren-serve-cache/v1";

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qbarren::serve
