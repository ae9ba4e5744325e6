// VQE on the transverse-field Ising chain — the kind of application the
// paper's introduction motivates (chemistry / optimization via PQCs).
//
// Minimizes <H> for H = -J sum Z_i Z_{i+1} - h sum X_i with the Eq 3
// hardware-efficient ansatz, comparing random vs Xavier initialization
// against the exact ground-state energy. On this non-trivial cost the
// initialization effect mirrors the paper's identity-learning result.
//
// Run: ./vqe_ising [--qubits 6] [--layers 3] [--iterations 80] [--j 1.0]
//                  [--h 1.0] [--seed 5]
#include <cstdio>
#include <exception>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/cli.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/hamiltonian.hpp"
#include "qbarren/opt/trainer.hpp"

int main(int argc, char** argv) {
  try {
    using namespace qbarren;
    const CliArgs args(argc, argv,
                       {"qubits", "layers", "iterations", "j", "h", "seed"});
    const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 6));
    const auto layers = static_cast<std::size_t>(args.get_int("layers", 3));
    const auto iterations =
        static_cast<std::size_t>(args.get_int("iterations", 80));
    const double j = args.get_double("j", 1.0);
    const double h = args.get_double("h", 1.0);
    const std::uint64_t seed = args.get_uint("seed", 5);

    auto hamiltonian =
        std::make_shared<PauliSumObservable>(transverse_field_ising(qubits, j, h));
    const double exact = ground_state_energy(*hamiltonian);
    std::printf("TFI chain: %zu qubits, J = %.2f, h = %.2f\n", qubits, j, h);
    std::printf("exact ground-state energy: %.6f\n\n", exact);

    TrainingAnsatzOptions ansatz_options;
    ansatz_options.layers = layers;
    auto circuit = std::make_shared<const Circuit>(
        training_ansatz(qubits, ansatz_options));
    const CostFunction cost(circuit, hamiltonian);
    const auto engine = make_gradient_engine("adjoint");

    for (const char* init_name : {"random", "xavier-normal"}) {
      Rng rng(seed);
      auto params = make_initializer(init_name)->initialize(*circuit, rng);
      auto optimizer = make_optimizer("adam", 0.1);
      TrainOptions train_options;
      train_options.max_iterations = iterations;
      const TrainResult result = train(cost, *engine, *optimizer,
                                       std::move(params), train_options);

      std::printf("%s init:\n", init_name);
      const std::size_t stride = std::max<std::size_t>(1, iterations / 8);
      for (std::size_t it = 0; it < result.loss_history.size();
           it += stride) {
        std::printf("  iter %3zu  energy %.6f  (error %.6f)\n", it,
                    result.loss_history[it],
                    result.loss_history[it] - exact);
      }
      std::printf("  final     energy %.6f  (error %.6f)\n\n",
                  result.final_loss, result.final_loss - exact);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
