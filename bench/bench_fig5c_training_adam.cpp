// Fig 5c reproduction: identity-function training with Adam.
//
// Identical protocol to Fig 5b (10 qubits, 5 layers, 50 iterations, step
// size 0.1, global identity cost) with the Adam optimizer. The paper's
// observation: Adam's per-parameter normalization lets even the randomly
// initialized circuit escape the plateau, but random remains the slowest
// while the classical strategies converge quickly.
#include "bench_common.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/trainer.hpp"

namespace {

void reproduce() {
  using namespace qbarren;
  bench::print_banner(
      "Fig 5c — loss convergence, Adam, 10-qubit / 5-layer HEA",
      "50 iterations, lr 0.1, global identity cost, seed 7");

  TrainingExperimentOptions options;
  options.optimizer = "adam";
  const TrainingExperiment experiment(options);
  const TrainingResult result = experiment.run_paper_set();

  std::printf("%s\n", result.loss_table(5).to_ascii().c_str());
  std::printf("%s\n", result.summary_table().to_ascii().c_str());
  std::printf(
      "expected shape (paper Fig 5c): all strategies eventually reach low\n"
      "loss under Adam; random starts at ~1.0 and lags the classical\n"
      "strategies through the early iterations.\n\n");
}

void bm_adam_step(benchmark::State& state) {
  using namespace qbarren;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AdamOptimizer optimizer(0.1);
  optimizer.reset(n);
  std::vector<double> params(n, 0.1);
  std::vector<double> grad(n, 0.01);
  for (auto _ : state) {
    optimizer.step(params, grad);
    benchmark::DoNotOptimize(params.data());
  }
}
BENCHMARK(bm_adam_step)->Arg(100)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
