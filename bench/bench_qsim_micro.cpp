// Micro-benchmarks of the state-vector simulator kernels that dominate the
// reproduction workload, and of the Rng samplers every circuit structure
// and initial angle is drawn through. No reproduction payload — pure
// google-benchmark.
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/kernels.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

// Internal to qbarren_exec: the table of compiled ISA variants.
#include "kernel_variant.hpp"

namespace {

using namespace qbarren;

void bm_single_qubit_gate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  const ComplexMatrix u = gates::ry(0.3);
  std::size_t target = 0;
  for (auto _ : state) {
    s.apply_single_qubit(u, target);
    target = (target + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_single_qubit_gate)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void bm_cz_gate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  std::size_t q = 0;
  for (auto _ : state) {
    exec::apply_cz(s, q, q + 1);
    q = (q + 1) % (n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_cz_gate)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void bm_two_qubit_generic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  const ComplexMatrix u = gates::crz(0.7);
  for (auto _ : state) {
    s.apply_two_qubit(u, 0, n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_two_qubit_generic)->Arg(4)->Arg(10)->Arg(16);

void bm_simulate_training_ansatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit circuit = training_ansatz(n, options);
  Rng rng(1);
  const auto params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  const auto plan = exec::plan_for(circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->simulate(params).norm_squared());
  }
  state.SetLabel(std::to_string(circuit.num_operations()) + " gates");
}
BENCHMARK(bm_simulate_training_ansatz)->Arg(4)->Arg(10)->Arg(14)
    ->Unit(benchmark::kMicrosecond);

void bm_simulate_deep_variance_ansatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng structure_rng(2);
  VarianceAnsatzOptions options;
  options.layers = 50;
  const Circuit circuit = variance_ansatz(n, structure_rng, options);
  Rng rng(3);
  const auto params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  const auto plan = exec::plan_for(circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->simulate(params).norm_squared());
  }
  state.SetLabel(std::to_string(circuit.num_operations()) + " gates");
}
BENCHMARK(bm_simulate_deep_variance_ansatz)->Arg(4)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

void bm_probability_readout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  s.apply_single_qubit(gates::hadamard(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.probability_one(0));
  }
}
BENCHMARK(bm_probability_readout)->Arg(10)->Arg(20);

/// A CZ ladder's pairs `mask` applied either gate by gate (apply_cz) or as
/// one sign pass (apply_cz_ladder), as a plan would without and with
/// kCzLadder.
struct CzLadderRun {
  std::uint64_t mask;
  std::uint64_t signs[exec::kCzLadderSignWords];

  explicit CzLadderRun(std::uint64_t pairs) : mask(pairs) {
    for (std::size_t w = 0; w < exec::kCzLadderSignWords; ++w) {
      signs[w] = exec::cz_ladder_sign_word(mask, w);
    }
  }

  void apply(const exec::KernelSet* kernels, StateVector& s,
             bool one_pass) const {
    if (one_pass) {
      kernels->apply_cz_ladder(s, mask, signs);
      return;
    }
    for (std::size_t k = 0; k + 1 < s.num_qubits(); ++k) {
      if ((mask >> k) & 1u) kernels->apply_cz(s, k, k + 1);
    }
  }
};

// One Fig 5a-shaped layer (a random-axis rotation on every qubit, then a
// CZ ladder) through one compiled kernel variant, the ladder gate by gate
// (`cz`) or in one pass (`ladder`). Registered in main() for every
// variant the CPU can run, so a report shows what each ISA level gains
// over the baseline.
void bm_kernel_variant_layer(benchmark::State& state,
                             const exec::KernelSet* kernels, bool one_pass) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<gates::Axis> axes;
  std::vector<gates::Mat2> entries;
  for (std::size_t q = 0; q < n; ++q) {
    axes.push_back(static_cast<gates::Axis>(rng.uniform_int(0, 2)));
    entries.push_back(
        gates::rotation_entries(axes.back(), rng.uniform(0.0, 2.0 * M_PI)));
  }
  const CzLadderRun ladder((std::uint64_t{1} << (n - 1)) - 1);
  StateVector s(n);
  for (auto _ : state) {
    for (std::size_t q = 0; q < n; ++q) {
      kernels->apply_rotation_mat2(s, axes[q], entries[q], q);
    }
    ladder.apply(kernels, s, one_pass);
  }
  benchmark::DoNotOptimize(s.norm_squared());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}

// The ladder lowering's worst case: two CZs on the top pairs (n-3, n-2),
// (n-2, n-1), which gate by gate touch a quarter of the amplitudes each,
// against one pass over the blocks whose parity is odd.
void bm_kernel_variant_top_pairs(benchmark::State& state,
                                 const exec::KernelSet* kernels,
                                 bool one_pass) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CzLadderRun ladder(std::uint64_t{3} << (n - 3));
  StateVector s(n);
  for (auto _ : state) ladder.apply(kernels, s, one_pass);
  benchmark::DoNotOptimize(s.norm_squared());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}

// One adjoint-sweep step (inverse on phi, <lambda| dR |phi>, inverse on
// lambda) on every target in turn, through one compiled kernel variant:
// what adjoint_value_and_gradient does once per rotation parameter.
// Registered in main() for every variant the CPU can run.
void bm_adjoint_sweep(benchmark::State& state,
                      const exec::KernelSet* kernels) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<gates::Axis> axes;
  std::vector<gates::Mat2> inverses;
  std::vector<gates::Mat2> derivatives;
  StateVector phi(n);
  StateVector lambda(n);
  for (std::size_t q = 0; q < n; ++q) {
    axes.push_back(static_cast<gates::Axis>(rng.uniform_int(0, 2)));
    const double angle = rng.uniform(0.0, 2.0 * M_PI);
    inverses.push_back(gates::rotation_entries(axes.back(), -angle));
    derivatives.push_back(
        gates::rotation_derivative_entries(axes.back(), angle));
    // Dense states, so no amplitude is an exact zero.
    kernels->apply_rotation_mat2(
        phi, gates::Axis::kY, gates::rotation_entries(gates::Axis::kY, 0.9),
        q);
    kernels->apply_rotation_mat2(
        lambda, gates::Axis::kX, gates::rotation_entries(gates::Axis::kX, 1.3),
        q);
  }
  Complex sum{0.0, 0.0};
  for (auto _ : state) {
    for (std::size_t t = 0; t < n; ++t) {
      sum += kernels->adjoint_rotation_sweep(phi, lambda, axes[t],
                                             inverses[t], derivatives[t], t);
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(phi.dimension()));
}

// Sampler cost: each iteration makes kSamplerDraws draws from one stream,
// and the ns_per_draw counter is the time per draw.
constexpr std::size_t kSamplerDraws = 1024;

template <typename Fill>
void bm_sampler(benchmark::State& state, Fill fill) {
  Rng rng(42);
  std::vector<double> out(kSamplerDraws);
  for (auto _ : state) {
    fill(rng, std::span<double>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_draw"] = benchmark::Counter(
      1e-9 * static_cast<double>(state.iterations()) * kSamplerDraws,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// The raw engine word: uniform_int over the full 64-bit range.
BENCHMARK_CAPTURE(bm_sampler, engine, [](Rng& rng, std::span<double> out) {
  for (auto& v : out) {
    v = std::bit_cast<double>(
        rng.uniform_int(0, std::numeric_limits<std::uint64_t>::max()));
  }
});
// Random / Xavier-uniform angles.
BENCHMARK_CAPTURE(bm_sampler, uniform, [](Rng& rng, std::span<double> out) {
  for (auto& v : out) v = rng.uniform(-3.0, 3.0);
});
// Xavier-normal, He and LeCun angles.
BENCHMARK_CAPTURE(bm_sampler, normal, [](Rng& rng, std::span<double> out) {
  for (auto& v : out) v = rng.normal(0.0, 0.3);
});
// A Fig 5a rotation axis (ansatz.cpp).
BENCHMARK_CAPTURE(bm_sampler, index3, [](Rng& rng, std::span<double> out) {
  for (auto& v : out) v = static_cast<double>(rng.index(3));
});
// Seeding a stream, once per circuit and per initializer call.
BENCHMARK_CAPTURE(bm_sampler, construct, [](Rng& rng, std::span<double> out) {
  for (auto& v : out) v = static_cast<double>(Rng(rng.seed() + 1).seed());
});

}  // namespace

int main(int argc, char** argv) {
  for (const qbarren::exec::KernelVariant& variant :
       qbarren::exec::kernel_variants()) {
    if (!variant.supported) continue;
    benchmark::RegisterBenchmark(
        (std::string("bm_adjoint_sweep/") + variant.isa).c_str(),
        bm_adjoint_sweep, variant.kernels)
        ->Arg(6)
        ->Arg(10);
    for (const bool one_pass : {false, true}) {
      const std::string suffix =
          std::string("/") + variant.isa + (one_pass ? "/ladder" : "/cz");
      benchmark::RegisterBenchmark(
          ("bm_kernel_variant_layer" + suffix).c_str(),
          bm_kernel_variant_layer, variant.kernels, one_pass)
          ->Arg(10)
          ->Arg(16);
      benchmark::RegisterBenchmark(
          ("bm_kernel_variant_top_pairs" + suffix).c_str(),
          bm_kernel_variant_top_pairs, variant.kernels, one_pass)
          ->Arg(10)
          ->Arg(16);
    }
  }
  return qbarren::bench::run_benchmarks(argc, argv);
}
