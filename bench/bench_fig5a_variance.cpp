// Fig 5a reproduction: gradient-variance decay per initialization strategy.
//
// Paper protocol (§IV-B/C): for q in {2,4,6,8,10}, 200 random Eq-2 HEA
// circuits per qubit count (one randomly drawn rotation in {RX,RY,RZ} per
// qubit per layer + CZ ladder), gradient of the cost with respect to the
// *last* parameter via the parameter-shift rule, variance over the 200
// samples, plotted on a log scale against q.
//
// The paper quotes "substantial depth" without a number; depth 50 is this
// repo's calibrated default (see bench_ablation_depth). The printed
// variance table is the Fig 5a data; the decay table's slopes are the
// "variance decay rates" of §VI-A.
#include <chrono>

#include "bench_common.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/init/registry.hpp"

namespace {

void reproduce() {
  using namespace qbarren;
  bench::print_banner(
      "Fig 5a — gradient variance vs qubits, six initializers",
      "Q = {2,4,6,8,10}, 200 circuits/point, depth 50, global cost,\n"
      "parameter-shift gradients, seed 42");

  VarianceExperimentOptions options;  // paper defaults baked in
  const VarianceExperiment experiment(options);
  const VarianceResult result = experiment.run_paper_set();

  std::printf("%s\n", result.variance_table().to_ascii().c_str());
  std::printf("%s\n", result.decay_table().to_ascii().c_str());
  std::printf(
      "expected shape (paper Fig 5a): every strategy's log-variance falls\n"
      "roughly linearly in q; random has the steepest slope; the Xavier\n"
      "variants decay far more slowly; He/LeCun/Orthogonal sit between.\n\n");
}

void bm_variance_cell(benchmark::State& state) {
  // One (q, initializer) cell at reduced sample count: the unit of work
  // the full experiment repeats 5 (qubit counts) x 6 (initializers) times.
  using namespace qbarren;
  VarianceExperimentOptions options;
  options.qubit_counts = {static_cast<std::size_t>(state.range(0))};
  options.circuits_per_point = 20;
  options.layers = 50;
  const VarianceExperiment experiment(options);
  const auto init = make_initializer("random");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        experiment.run({init.get()}).series[0].points[0].variance);
  }
  state.SetLabel("20 circuits, depth 50");
}
BENCHMARK(bm_variance_cell)->Arg(2)->Arg(6)->Arg(10)
    ->Unit(benchmark::kMillisecond);

void bm_variance_jobs_scaling(benchmark::State& state) {
  // Wall-clock of the same reduced grid at --jobs 1 vs --jobs <hardware>.
  // The cells are embarrassingly parallel, so the ratio approaches the
  // core count on unloaded multi-core machines; the results themselves
  // are byte-identical at both job counts (see test_resilience).
  using namespace qbarren;
  using Clock = std::chrono::steady_clock;
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 6};
  options.circuits_per_point = 20;
  options.layers = 50;
  const VarianceExperiment experiment(options);
  const auto init = make_initializer("random");
  const std::size_t hw = Executor::resolve_jobs(0);
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  for (auto _ : state) {
    RunControl control;
    control.jobs = 1;
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(
        experiment.run({init.get()}, control).series[0].points[0].variance);
    const auto t1 = Clock::now();
    control.jobs = hw;
    benchmark::DoNotOptimize(
        experiment.run({init.get()}, control).series[0].points[0].variance);
    const auto t2 = Clock::now();
    serial_seconds += std::chrono::duration<double>(t1 - t0).count();
    parallel_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["jobs"] = static_cast<double>(hw);
  state.counters["serial_seconds"] = serial_seconds / n;
  state.counters["parallel_seconds"] = parallel_seconds / n;
  state.counters["scaling_ratio"] =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  state.SetLabel("q={2,4,6}, 20 circuits, depth 50, jobs 1 vs " +
                 std::to_string(hw));
}
BENCHMARK(bm_variance_jobs_scaling)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
