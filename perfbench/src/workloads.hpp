// The benchmark's three workloads. Each has an end-to-end run (untraced,
// through the library's public runners) and a traced replay that drives
// each layer's public functions directly and times them.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "qbarren/common/json.hpp"

namespace perfbench {

/// Units of work per workload, sized so one unit takes tens to hundreds of
/// milliseconds and a run holds many of them.
inline constexpr std::size_t kFig5aCircuitsPerCell = 4;
inline constexpr std::size_t kServeHitCircuits = 200;
inline constexpr std::size_t kServeFreshCircuits = 20;

struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  /// Absolute path of this executable: serve workers re-execute it in
  /// worker mode.
  std::string self_exe;
};

/// Result signatures compared bit-for-bit against the stored references
/// (and between units of one run). Each runs the workload's computation
/// once through the public runner.
[[nodiscard]] qbarren::JsonValue fig5a_signature(std::uint64_t seed);
[[nodiscard]] qbarren::JsonValue train_signature(std::uint64_t seed);
[[nodiscard]] qbarren::JsonValue serve_signature(std::uint64_t seed);

/// End-to-end runs: add items_per_s, setup_s, peak_rss_mib and
/// hit_latency_s to `report`, times scaled by report.host_scale(). `reference` is the stored signature for the
/// seed, or null when the reference file holds none for it.
void run_fig5a(const RunOptions& options, const qbarren::JsonValue& reference,
               Report& report);
void run_train(const RunOptions& options, const qbarren::JsonValue& reference,
               Report& report);
void run_serve(const RunOptions& options, const qbarren::JsonValue& reference,
               Report& report);

/// Traced runs: add the workload's per-layer metrics (names prefixed with
/// the workload name) to `report`, spending about options.seconds.
void trace_fig5a(const RunOptions& options, Report& report);
void trace_train(const RunOptions& options, Report& report);
void trace_serve(const RunOptions& options, Report& report);

/// Runs `unit` until `seconds` have passed and at least `min_units` ran.
/// Each call counts as one attempted operation; an exception it throws
/// counts as one failed operation. The host reference kernel is timed
/// five times after every unit.
template <typename Unit>
void repeat_for(double seconds, std::size_t min_units, Report& report,
                Unit&& unit) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t n = 0; n < min_units || Clock::now() < deadline; ++n) {
    ++report.attempted;
    try {
      unit();
    } catch (const std::exception& e) {
      report.fail(e.what());
    }
    for (int i = 0; i < 5; ++i) {
      report.host_ref_s.push_back(time_host_reference_unit());
    }
  }
}

}  // namespace perfbench
