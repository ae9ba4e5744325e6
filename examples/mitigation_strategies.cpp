// Side-by-side demo of barren-plateau mitigation strategies on one task
// (identity learning at a width where random + GD stalls):
//   1. random + gradient descent          — the failing baseline
//   2. xavier-normal + gradient descent   — the paper's proposal
//   3. random + quantum natural gradient  — geometry-aware steps (§II-b)
//   4. growing layer-wise + Adam          — depth scheduling (§II-c)
//   5. identity blocks + gradient descent — mirror initialization (§II-a)
//
// Run: ./mitigation_strategies [--qubits 6] [--layers 4] [--iterations 40]
#include <cstdio>
#include <exception>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/cli.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/layerwise.hpp"
#include "qbarren/opt/natural_gradient.hpp"
#include "qbarren/opt/trainer.hpp"

namespace {

void report(const char* label, const qbarren::TrainResult& result) {
  std::printf("%-34s initial %.4f -> final %.6f (%zu iterations)\n", label,
              result.initial_loss, result.final_loss, result.iterations);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    using namespace qbarren;
    const CliArgs args(argc, argv, {"qubits", "layers", "iterations",
                                    "seed"});
    const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 6));
    const auto layers = static_cast<std::size_t>(args.get_int("layers", 4));
    const auto iterations =
        static_cast<std::size_t>(args.get_int("iterations", 40));
    const std::uint64_t seed = args.get_uint("seed", 7);

    const AdjointEngine engine;
    TrainingAnsatzOptions ansatz_options;
    ansatz_options.layers = layers;
    auto circuit = std::make_shared<const Circuit>(
        training_ansatz(qubits, ansatz_options));
    const CostFunction cost = make_identity_cost(circuit);
    TrainOptions train_options;
    train_options.max_iterations = iterations;

    std::printf("identity learning, %zu qubits, %zu layers, %zu iters:\n\n",
                qubits, layers, iterations);

    {
      Rng rng(seed);
      auto params = make_initializer("random")->initialize(*circuit, rng);
      auto gd = make_optimizer("gradient-descent", 0.1);
      report("random + GD (baseline)",
             train(cost, engine, *gd, std::move(params), train_options));
    }
    {
      Rng rng(seed);
      auto params =
          make_initializer("xavier-normal")->initialize(*circuit, rng);
      auto gd = make_optimizer("gradient-descent", 0.1);
      report("xavier-normal + GD (paper)",
             train(cost, engine, *gd, std::move(params), train_options));
    }
    {
      Rng rng(seed);
      auto params = make_initializer("random")->initialize(*circuit, rng);
      NaturalGradientOptions qng;
      qng.max_iterations = iterations;
      qng.learning_rate = 0.1;
      report("random + QNG",
             train_natural_gradient(cost, engine, std::move(params), qng));
    }
    {
      GrowingLayerwiseOptions grow;
      grow.qubits = qubits;
      grow.total_layers = layers;
      grow.iterations_per_stage = std::max<std::size_t>(1, iterations / layers);
      grow.optimizer = "adam";
      grow.seed = seed;
      auto obs = std::make_shared<GlobalZeroObservable>(qubits);
      report("growing layer-wise + Adam",
             train_layerwise_growing(obs, engine, grow));
    }
    {
      Rng structure_rng(seed);
      const MirrorBlockAnsatz mirror = mirror_block_ansatz(
          qubits, 1, std::max<std::size_t>(1, layers / 2), structure_rng);
      auto mirror_circuit = std::make_shared<const Circuit>(mirror.circuit);
      const CostFunction mirror_cost = make_identity_cost(mirror_circuit);
      Rng param_rng(seed + 1);
      auto params = initialize_identity_blocks(mirror, param_rng);
      auto gd = make_optimizer("gradient-descent", 0.1);
      report("identity blocks + GD",
             train(mirror_cost, engine, *gd, std::move(params),
                   train_options));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
