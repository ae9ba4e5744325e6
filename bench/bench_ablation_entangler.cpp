// Ablation: entangling-gate and topology choice in the HEA (Eq 1 context).
//
// The paper's HEA "typically" entangles with CZ on a nearest-neighbour
// ladder. This ablation reruns the random-initialization variance decay
// with CNOT entanglers and with ring / all-to-all topologies: the decay
// rate is insensitive to the gate choice (CZ vs CNOT are locally
// equivalent) but steepens with connectivity, since denser entangling
// layers scramble to a 2-design at smaller depth.
#include "bench_common.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/table.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/init/registry.hpp"

namespace {

using namespace qbarren;

const char* gate_name(EntanglerGate gate) {
  return gate == EntanglerGate::kCz ? "CZ" : "CNOT";
}

const char* topology_name(EntanglerTopology topology) {
  switch (topology) {
    case EntanglerTopology::kLinear:
      return "linear";
    case EntanglerTopology::kRing:
      return "ring";
    case EntanglerTopology::kAllToAll:
      return "all-to-all";
  }
  return "?";
}

void reproduce() {
  bench::print_banner(
      "Ablation — entangler gate and topology in the variance analysis",
      "random initialization, Q = {2,4,6,8}, 100 circuits/point, depth 30");

  const auto random = make_initializer("random");
  Table table({"entangler", "topology", "decay slope", "R^2",
               "Var at q=8"});
  const std::vector<std::pair<EntanglerGate, EntanglerTopology>> configs{
      {EntanglerGate::kCz, EntanglerTopology::kLinear},
      {EntanglerGate::kCnot, EntanglerTopology::kLinear},
      {EntanglerGate::kCz, EntanglerTopology::kRing},
      {EntanglerGate::kCz, EntanglerTopology::kAllToAll},
  };
  for (const auto& [gate, topology] : configs) {
    VarianceExperimentOptions options;
    options.qubit_counts = {2, 4, 6, 8};
    options.circuits_per_point = 100;
    options.layers = 30;
    options.entangler = gate;
    options.topology = topology;
    const VarianceResult result =
        VarianceExperiment(options).run({random.get()});
    const VarianceSeries& s = result.series[0];
    table.begin_row();
    table.push(std::string(gate_name(gate)));
    table.push(std::string(topology_name(topology)));
    table.push(s.decay_fit.slope, 4);
    table.push(s.decay_fit.r_squared, 4);
    table.push(format_sci(s.points.back().variance, 3));
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf(
      "expected shape: CZ vs CNOT barely matters; denser connectivity\n"
      "(ring, all-to-all) decays at least as fast as the paper's ladder.\n\n");
}

void bm_entangling_layer(benchmark::State& state) {
  const auto topology = static_cast<EntanglerTopology>(state.range(0));
  StateVector s(10);
  Circuit c(10);
  add_entangling_layer(c, EntanglerGate::kCz, topology);
  const auto plan = exec::plan_for(c);
  for (auto _ : state) {
    plan->apply_plan_ops(s, {}, 0, plan->num_plan_ops());
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.SetLabel(topology_name(topology));
}
BENCHMARK(bm_entangling_layer)
    ->Arg(static_cast<int>(qbarren::EntanglerTopology::kLinear))
    ->Arg(static_cast<int>(qbarren::EntanglerTopology::kAllToAll));

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_bench_main(argc, argv, reproduce);
}
