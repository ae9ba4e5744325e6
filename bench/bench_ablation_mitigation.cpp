// Ablation: the paper's initialization fix vs the related-work mitigation
// strategies it surveys (§II), on one common task.
//
// Task: learn the identity at 8 qubits (global cost), the regime where
// plain random-initialized gradient descent is pinned to the plateau.
// Contenders:
//   * random + GD            — the paper's failing baseline
//   * xavier-normal + GD     — the paper's proposed fix (§VI-B)
//   * random + Adam          — optimizer-side mitigation (Fig 5c)
//   * random + QNG           — quantum natural gradient (§II-b)
//   * growing layer-wise     — Skolik-style depth growth (§II-c), Adam
//   * identity blocks + GD   — Grant-style mirror initialization (§II-a)
#include "bench_common.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/layerwise.hpp"
#include "qbarren/opt/natural_gradient.hpp"
#include "qbarren/opt/rotosolve.hpp"
#include "qbarren/opt/trainer.hpp"

namespace {

using namespace qbarren;

constexpr std::size_t kQubits = 8;
constexpr std::size_t kLayers = 4;
constexpr std::size_t kIterations = 50;

void add_row(Table& table, const std::string& label,
             const TrainResult& result) {
  table.begin_row();
  table.push(label);
  table.push(result.initial_loss, 4);
  table.push(result.loss_history[result.loss_history.size() / 2], 4);
  table.push(result.final_loss, 4);
}

void reproduce() {
  bench::print_banner(
      "Ablation — initialization fix vs §II mitigation strategies",
      "identity learning, 8 qubits, depth 4, 50 iterations, lr 0.1");

  const AdjointEngine engine;
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = kLayers;
  auto circuit = std::make_shared<const Circuit>(
      training_ansatz(kQubits, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);

  Table table({"strategy", "initial loss", "mid loss", "final loss"});

  TrainOptions train_options;
  train_options.max_iterations = kIterations;

  // random + GD (the paper's failing baseline).
  {
    Rng rng(7);
    auto params = make_initializer("random")->initialize(*circuit, rng);
    auto gd = make_optimizer("gradient-descent", 0.1);
    add_row(table, "random + GD",
            train(cost, engine, *gd, std::move(params), train_options));
  }
  // xavier-normal + GD (the paper's fix).
  {
    Rng rng(7);
    auto params =
        make_initializer("xavier-normal")->initialize(*circuit, rng);
    auto gd = make_optimizer("gradient-descent", 0.1);
    add_row(table, "xavier-normal + GD",
            train(cost, engine, *gd, std::move(params), train_options));
  }
  // random + Adam (Fig 5c).
  {
    Rng rng(7);
    auto params = make_initializer("random")->initialize(*circuit, rng);
    auto adam = make_optimizer("adam", 0.1);
    add_row(table, "random + Adam",
            train(cost, engine, *adam, std::move(params), train_options));
  }
  // random + quantum natural gradient (§II-b).
  {
    Rng rng(7);
    auto params = make_initializer("random")->initialize(*circuit, rng);
    NaturalGradientOptions qng;
    qng.max_iterations = kIterations;
    qng.learning_rate = 0.1;
    add_row(table, "random + QNG",
            train_natural_gradient(cost, engine, std::move(params), qng));
  }
  // Growing layer-wise (§II-c) with Adam stages.
  {
    GrowingLayerwiseOptions grow;
    grow.qubits = kQubits;
    grow.total_layers = kLayers;
    grow.iterations_per_stage = kIterations / kLayers;
    grow.learning_rate = 0.1;
    grow.optimizer = "adam";
    grow.seed = 7;
    auto obs = std::make_shared<GlobalZeroObservable>(kQubits);
    add_row(table, "growing layer-wise + Adam",
            train_layerwise_growing(obs, engine, grow));
  }
  // random + Rotosolve (gradient-free closed-form updates; each sweep
  // costs ~3 evaluations per parameter, comparable to parameter-shift GD).
  {
    Rng rng(7);
    auto params = make_initializer("random")->initialize(*circuit, rng);
    RotosolveOptions roto;
    roto.max_sweeps = 5;
    add_row(table, "random + Rotosolve (5 sweeps)",
            train_rotosolve(cost, std::move(params), roto));
  }
  // Identity blocks (§II-a) + GD on the mirror ansatz (same total depth).
  {
    Rng structure_rng(7);
    const MirrorBlockAnsatz mirror =
        mirror_block_ansatz(kQubits, 1, kLayers / 2, structure_rng);
    auto mirror_circuit =
        std::make_shared<const Circuit>(mirror.circuit);
    const CostFunction mirror_cost = make_identity_cost(mirror_circuit);
    Rng param_rng(8);
    auto params = initialize_identity_blocks(mirror, param_rng);
    auto gd = make_optimizer("gradient-descent", 0.1);
    add_row(table, "identity blocks + GD",
            train(mirror_cost, engine, *gd, std::move(params),
                  train_options));
  }

  std::printf("%s\n", table.to_ascii().c_str());
  std::printf(
      "expected shape: random + GD is pinned near 1.0. Adam, Rotosolve,\n"
      "growing layer-wise, Xavier and identity blocks all escape. QNG does\n"
      "NOT rescue a random start at this width: on the plateau the metric\n"
      "flattens along with the gradient, so the regularized natural\n"
      "gradient step is as tiny as the vanilla one — geometry is no cure\n"
      "for exponentially small signal. The paper's point stands: Xavier\n"
      "initialization fixes the start at zero algorithmic overhead.\n\n");
}

void bm_qng_iteration(benchmark::State& state) {
  TrainingAnsatzOptions options;
  options.layers = 3;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(6, options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;
  Rng rng(1);
  const auto params =
      rng.uniform_vector(circuit->num_parameters(), 0.0, 6.0);
  NaturalGradientOptions qng;
  qng.max_iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        train_natural_gradient(cost, engine, params, qng).final_loss);
  }
  state.SetLabel("metric + solve, 36 params");
}
BENCHMARK(bm_qng_iteration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
