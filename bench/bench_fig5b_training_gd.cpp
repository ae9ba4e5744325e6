// Fig 5b reproduction: identity-function training with Gradient Descent.
//
// Paper protocol (§IV-D/V): 10-qubit, 5-layer Eq-3 HEA (145 gates, 100
// parameters), Eq-4 global cost C = 1 - p(|0...0>), 50 iterations of
// vanilla gradient descent at step size 0.1, one run per initializer.
//
// The gradients here come from adjoint differentiation, which computes the
// same values as the paper's parameter-shift rule (cross-checked in
// tests/test_grad.cpp) at a fraction of the cost.
#include "bench_common.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/trainer.hpp"

namespace {

void reproduce() {
  using namespace qbarren;
  bench::print_banner(
      "Fig 5b — loss convergence, Gradient Descent, 10-qubit / 5-layer HEA",
      "50 iterations, lr 0.1, global identity cost, seed 7");

  TrainingExperimentOptions options;  // paper defaults baked in
  options.optimizer = "gradient-descent";
  const TrainingExperiment experiment(options);
  const TrainingResult result = experiment.run_paper_set();

  std::printf("%s\n", result.loss_table(5).to_ascii().c_str());
  std::printf("%s\n", result.summary_table().to_ascii().c_str());
  std::printf(
      "expected shape (paper Fig 5b): randomly initialized training is\n"
      "trapped on the plateau (flat loss ~1.0); every classical strategy\n"
      "converges toward 0 within the 50-iteration budget.\n\n");
}

void bm_training_iteration(benchmark::State& state) {
  using namespace qbarren;
  // One gradient + step on the paper's exact ansatz.
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 5;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(10, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;
  GradientDescent optimizer(0.1);
  optimizer.reset(circuit->num_parameters());
  Rng rng(7);
  std::vector<double> params =
      make_initializer("xavier-normal")->initialize(*circuit, rng);
  for (auto _ : state) {
    const auto vg =
        engine.value_and_gradient(*circuit, cost.observable(), params);
    optimizer.step(params, vg.gradient);
    benchmark::DoNotOptimize(vg.value);
  }
  state.SetLabel("adjoint gradient + GD step, 100 params");
}
BENCHMARK(bm_training_iteration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
