// Wire protocol of the qbarren experiment service.
//
// Everything is newline-delimited JSON (NDJSON), in two dialects:
//
//   * client <-> service — one request object per line in, a stream of
//     event objects per line out ("admitted", "cell", "rejected",
//     "done"); see TUTORIAL §15 for the schemas;
//   * service <-> worker — WorkerJob lines down a pipe to `qbarren
//     worker` processes, WorkerReply lines back. Cell payloads cross the
//     pipe in the checkpoint layer's hexfloat text format
//     (serialize_cell_payload), so a double computed in a worker process
//     lands in the service's result cache bit-for-bit — the foundation of
//     the serve layer's byte-identical-to-serial guarantee.
//
// A request names an experiment kind ("variance" or "training"), its
// options (defaults match the in-process experiment defaults), and
// per-request run controls (failure budget, non-finite retry attempts,
// wall-clock deadline). The service always runs the paper initializer set
// (layer-tensor fan mode) — the same grid `qbarren variance`/`train`
// run — and takes its cells from the same cell plan (bp/cell_plan.hpp),
// so every cell key matches the in-process runner's keys and the shared
// result cache dedupes across the CLI and the service.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/json.hpp"

namespace qbarren::serve {

inline constexpr int kProtocolVersion = 1;

enum class SpecKind {
  kVariance,  ///< VarianceExperiment::run_paper_set (Fig 5a grid)
  kTraining,  ///< TrainingExperiment::run_paper_set (Fig 5b/c series)
};

/// "variance" / "training".
[[nodiscard]] const char* spec_kind_name(SpecKind kind) noexcept;

/// Inverse of spec_kind_name; throws NotFound on an unknown name.
[[nodiscard]] SpecKind spec_kind_from_name(const std::string& name);

/// One experiment request. Exactly one of `variance` / `training` is
/// meaningful, selected by `kind`; the other keeps its defaults.
struct RequestSpec {
  /// Client-chosen identifier echoed on every event for this request.
  std::string id;
  SpecKind kind = SpecKind::kVariance;
  VarianceExperimentOptions variance;
  TrainingExperimentOptions training;

  // --- per-request run controls (mirror RunControl semantics) -----------
  /// Terminal cell failures tolerated before the request aborts.
  std::size_t max_cell_failures = 0;
  /// Attempts per cell for retryable (non-finite) failures; retries use
  /// the parameter-shift fallback path, exactly like the in-process
  /// executor. 1 = no retry. (Worker crashes have their own budget,
  /// ServiceOptions::max_crash_attempts — a crash retry does NOT advance
  /// the engine attempt, so the replayed cell is bit-identical.)
  std::size_t max_cell_attempts = 1;
  /// Wall-clock deadline for the whole request, in seconds.
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

/// Parses a request object:
///   {"id": "...", "kind": "variance"|"training",
///    "options": {...},                           // kind-specific, all
///                                                // fields optional (the
///                                                // bp/options_table.hpp
///                                                // JSON codec)
///    "control": {"max_cell_failures": 0, "max_cell_attempts": 1,
///                "deadline_seconds": 60.0}}      // optional
/// Unknown keys anywhere are rejected (InvalidArgument) — a typo'd option
/// must not silently run with defaults.
[[nodiscard]] RequestSpec request_from_json(const JsonValue& value);
[[nodiscard]] JsonValue to_json(const RequestSpec& spec);

/// The underlying experiment's options fingerprint — the result cache's
/// namespace for this request's cells. Two requests whose options
/// fingerprint identically share cells regardless of id or run controls.
[[nodiscard]] std::string spec_fingerprint(const RequestSpec& spec);

/// The cell plan of the request's experiment over the paper initializers:
/// the cells run_paper_set runs, in its order.
[[nodiscard]] CellPlan request_cell_plan(const RequestSpec& spec);

// --- service <-> worker messages ----------------------------------------

struct WorkerJob {
  std::uint64_t job_id = 0;  ///< service-global, monotonically increasing
  SpecKind kind = SpecKind::kVariance;
  JsonValue options;  ///< kind-specific options object
  /// Only key, qubit_index and initializer_index cross the wire; the
  /// worker derives the cell's streams from `options`.
  PlanCell cell;
  /// Non-finite retry attempt this dispatch represents (maps to
  /// CellContext::attempt, selecting the fallback engine when > 0).
  std::size_t engine_attempt = 0;
};

[[nodiscard]] JsonValue to_json(const WorkerJob& job);
[[nodiscard]] WorkerJob worker_job_from_json(const JsonValue& value);

struct WorkerReply {
  enum class Type {
    kStart,  ///< cell computation begins (watchdog anchor)
    kOk,     ///< payload carries the cell in checkpoint text format
    kFail,   ///< in-worker failure; error/message carry the taxonomy
  };
  Type type = Type::kStart;
  std::uint64_t job_id = 0;
  std::string cell_key;
  std::string payload;  ///< kOk: serialize_cell_payload text
  std::string error;    ///< kFail: cell_error_class_name value
  std::string message;  ///< kFail: human-readable detail
};

[[nodiscard]] JsonValue to_json(const WorkerReply& reply);
[[nodiscard]] WorkerReply worker_reply_from_json(const JsonValue& value);

/// value.dump(0) + '\n' — one protocol line.
[[nodiscard]] std::string ndjson_line(const JsonValue& value);

}  // namespace qbarren::serve
