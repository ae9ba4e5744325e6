// Shared helpers for the benchmark / reproduction harnesses.
//
// Each bench binary reproduces one figure or table of the paper: it prints
// the regenerated rows/series to stdout (the reproduction payload), then
// runs any registered google-benchmark timings of the kernels involved.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "qbarren/exec/kernel_isa.hpp"

namespace qbarren::bench {

inline void print_banner(const std::string& experiment,
                         const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), description.c_str());
  std::printf("================================================================\n\n");
}

/// Runs the registered google-benchmark timings, with the gate kernels'
/// ISA variant (qbarren/exec/kernel_isa.hpp) in the report's context, so
/// a saved report names the variant that produced it. Returns a
/// main()-compatible exit code.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::AddCustomContext("kernel_isa", exec::kernel_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Prints the reproduction payload via `reproduce`, then runs registered
/// google-benchmark timings. Returns a main()-compatible exit code.
template <typename Fn>
int run_bench_main(int argc, char** argv, Fn&& reproduce) {
  try {
    reproduce();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reproduction failed: %s\n", e.what());
    return 1;
  }
  return run_benchmarks(argc, argv);
}

}  // namespace qbarren::bench
