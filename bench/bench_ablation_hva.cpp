// Ablation: problem-aware ansatz (HVA) vs hardware-efficient ansatz (HEA)
// on the transverse-field Ising VQE.
//
// The paper fixes the hardware-efficient ansatz and varies initialization;
// the complementary axis is the ansatz itself. The Hamiltonian variational
// ansatz builds its layers from the problem's own terms, giving a far
// smaller, structured parameter space. This bench trains both (Adam,
// lr 0.1) from random and Xavier starts and compares the energy error
// against the exact ground state.
#include <cmath>

#include "bench_common.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/hva.hpp"
#include "qbarren/opt/trainer.hpp"

namespace {

using namespace qbarren;

void reproduce() {
  bench::print_banner(
      "Ablation — HVA vs HEA on the transverse-field Ising VQE",
      "6-qubit critical TFI (J = h = 1), 80 Adam iterations at lr 0.1");

  const std::size_t qubits = 6;
  auto hamiltonian = std::make_shared<PauliSumObservable>(
      transverse_field_ising(qubits, 1.0, 1.0));
  const double exact = ground_state_energy(*hamiltonian);
  std::printf("exact ground-state energy: %.6f\n\n", exact);

  const AdjointEngine engine;
  TrainOptions train_options;
  train_options.max_iterations = 80;

  Table table({"ansatz", "initializer", "parameters", "final energy",
               "error"});

  auto run = [&](const std::string& label,
                 std::shared_ptr<const Circuit> circuit,
                 const std::string& init_name) {
    const CostFunction cost(circuit, hamiltonian);
    Rng rng(5);
    auto params = make_initializer(init_name)->initialize(*circuit, rng);
    auto optimizer = make_optimizer("adam", 0.1);
    const TrainResult result =
        train(cost, engine, *optimizer, std::move(params), train_options);
    table.begin_row();
    table.push(label);
    table.push(init_name);
    table.push(circuit->num_parameters());
    table.push(result.final_loss, 6);
    table.push(result.final_loss - exact, 6);
  };

  TrainingAnsatzOptions hea_options;
  hea_options.layers = 3;
  auto hea = std::make_shared<const Circuit>(
      training_ansatz(qubits, hea_options));
  HvaOptions hva_options;
  hva_options.layers = 3;
  auto hva = std::make_shared<const Circuit>(
      hva_ansatz(*hamiltonian, hva_options));

  for (const char* init : {"random", "xavier-normal"}) {
    run("HEA (Eq 3, 3 layers)", hea, init);
    run("HVA (3 layers)", hva, init);
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf(
      "expected shape: at matched parameter counts the HVA reaches lower\n"
      "error from both starts — problem structure is an alternative cure\n"
      "to careful initialization.\n\n");
}

void bm_hva_simulation(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const PauliSumObservable h = transverse_field_ising(qubits, 1.0, 1.0);
  HvaOptions options;
  options.layers = 3;
  const Circuit c = hva_ansatz(h, options);
  Rng rng(1);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0);
  const auto plan = exec::plan_for(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->simulate(params).norm_squared());
  }
  state.SetLabel(std::to_string(c.num_operations()) + " gates");
}
BENCHMARK(bm_hva_simulation)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
