// Quickstart: build a hardware-efficient ansatz, initialize it with Xavier
// normal, evaluate the identity-learning cost and its gradient, and train
// for a few iterations with Adam.
//
// Run: ./quickstart [--qubits 4] [--layers 3] [--iterations 25] [--seed 11]
#include <cstdio>
#include <exception>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/circuit/printer.hpp"
#include "qbarren/common/cli.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/trainer.hpp"

int main(int argc, char** argv) {
  try {
    const qbarren::CliArgs args(argc, argv,
                                {"qubits", "layers", "iterations", "seed"});
    const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 4));
    const auto layers = static_cast<std::size_t>(args.get_int("layers", 3));
    const auto iterations =
        static_cast<std::size_t>(args.get_int("iterations", 25));
    const std::uint64_t seed = args.get_uint("seed", 11);

    // 1. Build the paper's Eq 3 training ansatz.
    qbarren::TrainingAnsatzOptions ansatz_options;
    ansatz_options.layers = layers;
    auto circuit = std::make_shared<const qbarren::Circuit>(
        qbarren::training_ansatz(qubits, ansatz_options));
    std::printf("ansatz: %zu qubits, %zu layers -> %zu gates, %zu params\n",
                qubits, layers, circuit->num_operations(),
                circuit->num_parameters());

    // 2. Initialize parameters with Xavier normal.
    const auto initializer = qbarren::make_initializer("xavier-normal");
    qbarren::Rng rng(seed);
    std::vector<double> params = initializer->initialize(*circuit, rng);

    // 3. Evaluate the Eq 4 identity cost and its gradient.
    const qbarren::CostFunction cost = qbarren::make_identity_cost(circuit);
    const auto engine = qbarren::make_gradient_engine("adjoint");
    const auto vg =
        engine->value_and_gradient(*circuit, cost.observable(), params);
    double grad_norm = 0.0;
    for (double g : vg.gradient) grad_norm += g * g;
    std::printf("initial cost  : %.6f\n", vg.value);
    std::printf("gradient norm : %.6f (%zu components)\n",
                std::sqrt(grad_norm), vg.gradient.size());

    // 4. Train with Adam at the paper's step size.
    auto optimizer = qbarren::make_optimizer("adam", 0.1);
    qbarren::TrainOptions train_options;
    train_options.max_iterations = iterations;
    const qbarren::TrainResult result = qbarren::train(
        cost, *engine, *optimizer, std::move(params), train_options);

    std::printf("\ntraining (%zu iterations of %s):\n", result.iterations,
                optimizer->name().c_str());
    for (std::size_t it = 0; it < result.loss_history.size();
         it += std::max<std::size_t>(1, iterations / 10)) {
      std::printf("  iter %3zu  loss %.6f\n", it, result.loss_history[it]);
    }
    std::printf("  final     loss %.6f\n", result.final_loss);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
