#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

namespace {

/// VmHWM of /proc/<pid>/status in KiB, or 0 when it cannot be read.
long high_water_kib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

}  // namespace

double peak_rss_mib(const std::vector<long>& pids) {
  long kib = high_water_kib("self");
  for (const long pid : pids) {
    kib = std::max(kib, high_water_kib(std::to_string(pid)));
  }
  return static_cast<double>(kib) / 1024.0;
}

double time_host_reference_unit() {
  // Frozen: changing this kernel breaks comparisons across commits.
  constexpr std::size_t kQubits = 10;
  constexpr std::size_t kDim = std::size_t{1} << kQubits;
  constexpr int kSweeps = 8;
  static std::vector<double> re(kDim);
  static std::vector<double> im(kDim);
  re.assign(kDim, 0.0);
  im.assign(kDim, 0.0);
  re[0] = 1.0;
  const auto start = Clock::now();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t q = 0; q < kQubits; ++q) {
      const double theta = 0.1 * static_cast<double>(sweep * kQubits + q + 1);
      const double c = std::cos(theta);
      const double s = std::sin(theta);
      const std::size_t bit = std::size_t{1} << q;
      for (std::size_t i = 0; i < kDim; ++i) {
        if ((i & bit) != 0) continue;
        const std::size_t j = i | bit;
        const double r0 = re[i];
        const double r1 = re[j];
        const double i0 = im[i];
        const double i1 = im[j];
        re[i] = c * r0 - s * r1;
        re[j] = s * r0 + c * r1;
        im[i] = c * i0 - s * i1;
        im[j] = s * i0 + c * i1;
      }
    }
  }
  const double elapsed = seconds_between(start, Clock::now());
  // Keep the sweep observable so it cannot be optimised away.
  volatile double sink = re[kDim - 1] + im[kDim / 2];
  (void)sink;
  return elapsed;
}

std::string hexfloat(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Clock::time_point LayerTrace::span(const std::string& layer,
                                   Clock::time_point start) {
  const Clock::time_point now = Clock::now();
  unit_[layer] += seconds_between(start, now);
  return now;
}

void LayerTrace::count(const std::string& name, double amount) {
  unit_[name] += amount;
}

void LayerTrace::end_unit() {
  for (const auto& [name, value] : unit_) {
    auto& column = units_[name];
    column.resize(closed_, 0.0);
    column.push_back(value);
  }
  unit_.clear();
  ++closed_;
}

std::vector<double> LayerTrace::samples(const std::string& name) const {
  const auto it = units_.find(name);
  std::vector<double> column =
      it == units_.end() ? std::vector<double>{} : it->second;
  column.resize(closed_, 0.0);
  return column;
}

std::vector<std::string> LayerTrace::names() const {
  std::vector<std::string> out;
  for (const auto& entry : units_) out.push_back(entry.first);
  return out;
}

void Report::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string Report::json_line() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    // Non-finite values are not JSON; report them as null so a reader
    // sees a broken metric rather than a parse error.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

std::string describe(const std::vector<double>& xs) {
  if (xs.empty()) return "n=0";
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "p1=%.6g p5=%.6g p10=%.6g p50=%.6g p90=%.6g n=%zu",
                quantile(xs, 0.01), quantile(xs, 0.05), quantile(xs, 0.1),
                quantile(xs, 0.5), quantile(xs, 0.9), xs.size());
  return buf;
}

}  // namespace perfbench
