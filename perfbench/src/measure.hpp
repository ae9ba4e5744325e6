// Timing, statistics and reporting shared by the benchmark's workloads.
//
// Every timing is built from many short, identical units and summarised by
// its fast decile (p10 of the unit times): on a shared host, contention
// only ever adds time, so the low tail tracks the program while the median
// tracks the neighbours. Medians and tails are still printed in the traced
// report, but only the fast decile is gated.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile `q` in [0, 1] of `xs`, interpolating linearly between order
/// statistics. Throws std::invalid_argument on an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// The fast decile: quantile(xs, 0.1).
[[nodiscard]] inline double fast_decile(const std::vector<double>& xs) {
  return quantile(xs, 0.1);
}

/// Peak resident set size (VmHWM) in MiB of this process and of the live
/// processes `pids` (serve workers), whichever is largest. VmHWM starts
/// afresh at exec, unlike getrusage's ru_maxrss, which would report the
/// launching interpreter's footprint.
[[nodiscard]] double peak_rss_mib(const std::vector<long>& pids = {});

/// Seconds one call of the frozen host reference kernel takes: 2x2
/// real-arithmetic rotation sweeps over a 2^10-amplitude array. It never
/// calls the library, so it tells a slow host from a slow change.
[[nodiscard]] double time_host_reference_unit();

/// The reference kernel's fast-decile time on the host the end-to-end
/// figures are scaled to (a quiet 4-vCPU x86-64 KVM guest). Frozen with
/// the kernel.
inline constexpr double kReferenceHostUnitS = 1.0e-4;

/// Bit-exact text of a double ("%a"), for reference comparisons.
[[nodiscard]] std::string hexfloat(double value);

/// FNV-1a 64-bit hash as 16 hex digits.
[[nodiscard]] std::string fnv1a64(const std::string& text);

/// Accumulates per-layer busy time and counts for one traced unit, then
/// collects the per-unit totals across units.
class LayerTrace {
 public:
  /// Adds the time from `start` to now to `layer` in the current unit and
  /// returns now, so consecutive spans chain without extra clock reads.
  Clock::time_point span(const std::string& layer, Clock::time_point start);
  void count(const std::string& name, double amount);

  /// Closes the current unit: its totals join the per-unit samples.
  void end_unit();

  /// Per-unit samples of `name` (busy time or count), one per closed
  /// unit; a name never touched in a unit reads 0 for it.
  [[nodiscard]] std::vector<double> samples(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, double> unit_;
  std::map<std::string, std::vector<double>> units_;
  std::size_t closed_ = 0;
};

/// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last stdout line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The host reference kernel's time, taken after every unit.
  std::vector<double> host_ref_s;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  /// Scales a time measured in this run to the reference host:
  /// kReferenceHostUnitS / fast decile of host_ref_s. The host's speed
  /// drifts by tens of percent over minutes; the kernel slows with it but
  /// never with a code change, so scaled times move only with the code.
  [[nodiscard]] double host_scale() const {
    return kReferenceHostUnitS / fast_decile(host_ref_s);
  }
  /// Records one failed operation with its reason on stderr.
  void fail(const std::string& why);

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  [[nodiscard]] std::string json_line() const;
};

/// Prints one human-readable report line to stdout ("# " prefix), e.g. the
/// traced run's medians and tails.
void note(const std::string& text);

/// "p10=... p50=... p90=... n=..." summary of a sample, for notes.
[[nodiscard]] std::string describe(const std::vector<double>& xs);

}  // namespace perfbench
