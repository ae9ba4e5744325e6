// Micro-benchmarks of the gradient engines: full-gradient cost as a
// function of parameter count. Parameter-shift scales as 2P circuit
// simulations; adjoint as a constant number of sweeps — the reason the
// training experiments default to adjoint while the variance analysis
// (one partial derivative per circuit) uses parameter-shift like the
// paper.
#include <chrono>
#include <functional>

#include "bench_common.hpp"
#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/analysis/predict.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/serve/audit.hpp"

namespace {

using namespace qbarren;

struct Setup {
  Circuit circuit;
  GlobalZeroObservable observable;
  std::vector<double> params;

  explicit Setup(std::size_t qubits, std::size_t layers)
      : circuit(make_circuit(qubits, layers)), observable(qubits) {
    Rng rng(5);
    params = rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  }

  static Circuit make_circuit(std::size_t qubits, std::size_t layers) {
    TrainingAnsatzOptions options;
    options.layers = layers;
    return training_ansatz(qubits, options);
  }
};

void bm_full_gradient(benchmark::State& state, const char* engine_name) {
  const Setup setup(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const auto engine = make_gradient_engine(engine_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->gradient(setup.circuit, setup.observable, setup.params)
            .data());
  }
  state.SetLabel(std::to_string(setup.circuit.num_parameters()) + " params");
}

void bm_parameter_shift(benchmark::State& state) {
  bm_full_gradient(state, "parameter-shift");
}
void bm_adjoint(benchmark::State& state) { bm_full_gradient(state, "adjoint"); }
void bm_finite_difference(benchmark::State& state) {
  bm_full_gradient(state, "finite-difference");
}
void bm_spsa(benchmark::State& state) { bm_full_gradient(state, "spsa"); }

BENCHMARK(bm_parameter_shift)
    ->Args({4, 2})->Args({8, 4})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_adjoint)
    ->Args({4, 2})->Args({8, 4})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finite_difference)
    ->Args({4, 2})->Args({8, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_spsa)
    ->Args({4, 2})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);

void bm_single_partial_parameter_shift(benchmark::State& state) {
  // The variance experiment's unit of work: one partial derivative of the
  // last parameter.
  const Setup setup(static_cast<std::size_t>(state.range(0)), 5);
  const ParameterShiftEngine engine;
  const std::size_t last = setup.circuit.num_parameters() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.partial(setup.circuit, setup.observable, setup.params, last));
  }
}
BENCHMARK(bm_single_partial_parameter_shift)->Arg(4)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// --- compiled execution ------------------------------------------------------
//
// Times a single-threaded workload through the compiled execution plan and
// reports the wall-clock together with the plan's lowering counters in the
// JSON output. CI's bench-smoke step uploads these counters.

void time_compiled(benchmark::State& state, const Setup& setup, int reps,
                   const std::function<void()>& work) {
  using Clock = std::chrono::steady_clock;
  const auto plan = exec::plan_for(setup.circuit);
  double compiled_seconds = 0.0;
  // Untimed warmup: the first few repetitions pay cold caches and lazy
  // gate-matrix statics.
  for (int r = 0; r < 3; ++r) {
    work();
  }
  for (auto _ : state) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      work();
    }
    compiled_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }
  state.counters["compiled_seconds"] =
      compiled_seconds / static_cast<double>(state.iterations());
  const auto& stats = plan->stats();
  state.counters["lowered_ops"] = static_cast<double>(stats.plan_ops);
  state.counters["fused_ops"] = static_cast<double>(stats.fused_source_ops);
  state.counters["matrices_cached"] =
      static_cast<double>(stats.cached_matrices);
  // QB010's static cost model, so each uploaded JSON pairs the measured
  // time with the plan's predicted work per application.
  const PlanResourceEstimate estimate = estimate_plan_resources(*plan);
  state.counters["plan_flops"] = estimate.flops;
  state.counters["plan_bytes"] = estimate.bytes;
}

void bm_compiled_adjoint_deep_hea(benchmark::State& state) {
  // Deep HEA, full adjoint gradient — the Fig 5b/5c training unit of work.
  const Setup setup(6, 40);
  const AdjointEngine engine;
  time_compiled(state, setup, /*reps=*/20, [&] {
    benchmark::DoNotOptimize(
        engine.gradient(setup.circuit, setup.observable, setup.params).data());
  });
  state.SetLabel("q=6 L=40 adjoint");
}
BENCHMARK(bm_compiled_adjoint_deep_hea)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void bm_compiled_parameter_shift_last_param(benchmark::State& state) {
  // The Fig 5a unit of work: parameter-shift partial of the LAST
  // parameter, reusing the prefix state before the shifted gate across
  // both +-pi/2 evaluations.
  const Setup setup(6, 40);
  const ParameterShiftEngine engine;
  const std::size_t last = setup.circuit.num_parameters() - 1;
  time_compiled(state, setup, /*reps=*/200, [&] {
    benchmark::DoNotOptimize(
        engine.partial(setup.circuit, setup.observable, setup.params, last));
  });
  state.SetLabel("q=6 L=40 parameter-shift last param");
}
BENCHMARK(bm_compiled_parameter_shift_last_param)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// --- the shared-prefix shift walk ---------------------------------------------
//
// With a plan, ParameterShiftEngine::gradient evaluates all 2P shifted
// bindings in one walk of the op stream: one base state advances once,
// and each shifted binding copies it at its consuming op and runs the
// suffix with precomputed rotation entries. This bench times that against
// a per-parameter PartialEvaluator loop (a fresh prefix simulation per
// parameter) on the same plan and reports both wall-clocks, their ratio
// (walk_speedup) and the walk's throughput in shifted-binding simulations
// per second (states_per_second). CI's bench-smoke step gates the two
// headline counters against bench/baselines/bench_grad_micro.json.

void bm_shift_walk(benchmark::State& state) {
  const Setup setup(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const auto plan = exec::plan_for(setup.circuit);
  const ParameterShiftEngine engine;
  const std::size_t num_params = setup.circuit.num_parameters();
  constexpr double kShift = M_PI / 2.0;
  const auto per_parameter = [&] {
    std::vector<double> grad(num_params);
    for (std::size_t i = 0; i < num_params; ++i) {
      exec::PartialEvaluator cost(plan, setup.observable, setup.params, i);
      const double plus = cost(kShift);
      const double minus = cost(-kShift);
      grad[i] = 0.5 * (plus - minus);
    }
    return grad;
  };
  const auto walk = [&] {
    return engine.gradient(setup.circuit, setup.observable, setup.params);
  };
  // Untimed warmup of both paths (cold caches, lazy statics), which also
  // checks that they agree bit for bit.
  if (per_parameter() != walk()) {
    state.SkipWithError("shift walk differs from the per-parameter loop");
    return;
  }
  using Clock = std::chrono::steady_clock;
  double loop_seconds = 0.0;
  double walk_seconds = 0.0;
  // Alternate the two within each rep so machine-load drift hits both
  // evenly instead of biasing whichever ran later; enough reps that one
  // scheduler hiccup cannot move the gated counters by itself.
  constexpr int kReps = 20;
  for (auto _ : state) {
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      benchmark::DoNotOptimize(per_parameter().data());
      const auto t1 = Clock::now();
      benchmark::DoNotOptimize(walk().data());
      const auto t2 = Clock::now();
      loop_seconds += std::chrono::duration<double>(t1 - t0).count();
      walk_seconds += std::chrono::duration<double>(t2 - t1).count();
    }
  }
  const double n = static_cast<double>(state.iterations()) * kReps;
  const double shifted_bindings = 2.0 * static_cast<double>(num_params);
  state.counters["loop_seconds"] = loop_seconds / n;
  state.counters["walk_seconds"] = walk_seconds / n;
  state.counters["walk_speedup"] =
      walk_seconds > 0.0 ? loop_seconds / walk_seconds : 0.0;
  state.counters["states_per_second"] =
      walk_seconds > 0.0 ? shifted_bindings * n / walk_seconds : 0.0;
  state.SetLabel("q=" + std::to_string(state.range(0)) +
                 " L=" + std::to_string(state.range(1)) +
                 " parameter-shift full gradient, shift walk vs "
                 "per-parameter loop");
}
BENCHMARK(bm_shift_walk)
    ->Args({6, 40})->Args({10, 5})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// --- plan verification overhead ---------------------------------------------
//
// The --verify-plans flag adds one verify_plan() call per fresh lowering.
// This bench times compilation and verification of the same circuit
// separately and reports both plus their ratio. Both are one-time
// microsecond-scale costs amortized over thousands of plan applications;
// the counters keep the verifier honest as checks grow (today it costs
// ~2x the — very cheap — compile step, i.e. microseconds per plan).

void bm_plan_verify(benchmark::State& state) {
  const Setup setup(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  using Clock = std::chrono::steady_clock;
  double compile_seconds = 0.0;
  double verify_seconds = 0.0;
  std::size_t findings = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const auto plan = exec::CompiledCircuit::compile(setup.circuit);
    const auto t1 = Clock::now();
    const Diagnostics diagnostics = verify_plan(setup.circuit, *plan);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(diagnostics.size());
    compile_seconds += std::chrono::duration<double>(t1 - t0).count();
    verify_seconds += std::chrono::duration<double>(t2 - t1).count();
    findings = diagnostics.size();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["compile_seconds"] = compile_seconds / n;
  state.counters["verify_seconds"] = verify_seconds / n;
  state.counters["verify_over_compile"] =
      compile_seconds > 0.0 ? verify_seconds / compile_seconds : 0.0;
  state.counters["verify_findings"] = static_cast<double>(findings);
  state.SetLabel("verify_plan vs compile, one plan");
}
BENCHMARK(bm_plan_verify)
    ->Args({4, 2})->Args({10, 5})->Args({6, 40})
    ->Unit(benchmark::kMicrosecond);

// --- serve request audit -----------------------------------------------------
//
// Serve admission audits every request before any cell: it builds the RNG
// stream graph (one leaf per structure and parameter stream), runs its
// QD100/QD103 rules, and merges the options table's QD102/QD103 findings,
// which the process computed once. This bench times the three parts
// separately on a Fig 5a-shaped request with 200 circuits per qubit count:
// q = 2,4,6,8 is the serve-roundtrip hit request (5600 leaves), q = 2..10
// the paper grid (7000 leaves). qd100_seconds also holds QD103's
// duplicate-cell pass, which walks only the few dozen cell keys.

void bm_audit_request(benchmark::State& state) {
  serve::RequestSpec spec;
  spec.id = "bench";
  spec.kind = serve::SpecKind::kVariance;
  spec.variance.qubit_counts.clear();
  for (std::size_t q = 2; q <= static_cast<std::size_t>(state.range(0));
       q += 2) {
    spec.variance.qubit_counts.push_back(q);
  }
  spec.variance.circuits_per_point = 200;
  spec.variance.layers = 50;
  spec.variance.seed = 42;
  if (!serve::audit_request(spec).empty()) {
    state.SkipWithError("the paper-shaped request must audit clean");
    return;
  }
  using Clock = std::chrono::steady_clock;
  double graph_seconds = 0.0;
  double qd100_seconds = 0.0;
  double probe_seconds = 0.0;
  std::size_t leaves = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const StreamGraph graph = serve::request_stream_graph(spec);
    const auto t1 = Clock::now();
    Diagnostics findings = audit_stream_graph(graph);
    const auto t2 = Clock::now();
    const Diagnostics& table = serve::options_table_findings(spec.kind);
    findings.insert(findings.end(), table.begin(), table.end());
    const auto t3 = Clock::now();
    benchmark::DoNotOptimize(findings.size());
    graph_seconds += std::chrono::duration<double>(t1 - t0).count();
    qd100_seconds += std::chrono::duration<double>(t2 - t1).count();
    probe_seconds += std::chrono::duration<double>(t3 - t2).count();
    leaves = graph.leaves.size();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["leaves"] = static_cast<double>(leaves);
  state.counters["graph_seconds"] = graph_seconds / n;
  state.counters["qd100_seconds"] = qd100_seconds / n;
  state.counters["probe_seconds"] = probe_seconds / n;
  state.SetLabel("serve admission audit parts, q=2.." +
                 std::to_string(state.range(0)) + " x 200 circuits");
}
BENCHMARK(bm_audit_request)->Arg(8)->Arg(10)->Unit(benchmark::kMicrosecond);

// --- preflight lint and the static Fig 5a ------------------------------------
//
// Every variance/train run, and every serve request, lints its widest
// circuit before the first cell: on the paper grid that is the q = 10,
// depth-50 Eq-2 circuit (950 ops, 500 parameters), and for training the
// q = 10, 5-layer Eq-3 circuit. The counters split one iteration into its
// two preflights. bm_predict_grid times `qbarren predict` on the default
// grid (q = 2..10, six initializers) at 8 and 32 structures per cell.

void bm_lint_preflight(benchmark::State& state) {
  const VarianceExperimentOptions variance;
  const TrainingExperimentOptions training;
  using Clock = std::chrono::steady_clock;
  double variance_seconds = 0.0;
  double training_seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const Diagnostics v = lint_variance_options(variance);
    const auto t1 = Clock::now();
    const Diagnostics t = lint_training_options(training);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(v.size());
    benchmark::DoNotOptimize(t.size());
    variance_seconds += std::chrono::duration<double>(t1 - t0).count();
    training_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["variance_seconds"] = variance_seconds / n;
  state.counters["training_seconds"] = training_seconds / n;
  state.SetLabel("lint_variance_options paper grid + lint_training_options");
}
BENCHMARK(bm_lint_preflight)->Unit(benchmark::kMicrosecond);

void bm_predict_grid(benchmark::State& state) {
  const VarianceExperimentOptions options;
  const std::vector<std::string> initializers = {
      "random", "xavier-normal", "xavier-uniform", "he", "lecun",
      "orthogonal"};
  const auto structures = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const PredictionGrid grid =
        predict_variance_grid(options, initializers, {}, structures);
    benchmark::DoNotOptimize(grid.series.size());
  }
  state.SetLabel("predict_variance_grid, paper grid, " +
                 std::to_string(structures) + " structures per cell");
}
BENCHMARK(bm_predict_grid)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// --- stored results ----------------------------------------------------------
//
// Every `--json` file, finished-checkpoint restore and serve answer renders
// a result as JSON; serve's hit path also re-summarizes every stored cell.
// bm_result_render times to_json + dump of the train-fig5bc result (Fig
// 5b, q = 10, six 50-iteration series), with the time per rendered number.
// bm_summarize_cells times `summarize` over the 24 stored 200-sample cells
// of perfbench's serve hit request (q = 2,4,6,8, depth 50, seed 42).

std::size_t count_numbers(const JsonValue& value) {
  if (value.is_number()) return 1;
  std::size_t n = 0;
  if (value.is_array()) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      n += count_numbers(value.at(i));
    }
  } else if (value.is_object()) {
    for (const std::string& key : value.keys()) {
      n += count_numbers(value.at(key));
    }
  }
  return n;
}

void bm_result_render(benchmark::State& state) {
  TrainingExperimentOptions options;
  options.seed = 42;
  RunControl control;
  control.jobs = 1;
  const TrainingResult result =
      TrainingExperiment(options).run_paper_set(FanMode::kLayerTensor,
                                                control);
  const double numbers = static_cast<double>(count_numbers(to_json(result)));
  for (auto _ : state) {
    const std::string json = to_json(result).dump();
    benchmark::DoNotOptimize(json.data());
  }
  state.counters["numbers"] = numbers;
  state.counters["ns_per_number"] = benchmark::Counter(
      numbers * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel("to_json(train-fig5bc result).dump()");
}
BENCHMARK(bm_result_render)->Unit(benchmark::kMicrosecond);

void bm_summarize_cells(benchmark::State& state) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 6, 8};
  options.circuits_per_point = 200;
  options.layers = 50;
  options.seed = 42;
  options.keep_samples = true;
  RunControl control;
  control.jobs = 1;
  const VarianceResult result =
      VarianceExperiment(options).run_paper_set(FanMode::kLayerTensor,
                                                control);
  std::vector<const std::vector<double>*> cells;
  for (const VarianceSeries& series : result.series) {
    for (const VariancePoint& point : series.points) {
      cells.push_back(&point.samples);
    }
  }
  for (auto _ : state) {
    for (const std::vector<double>* samples : cells) {
      const Summary summary = summarize(*samples);
      benchmark::DoNotOptimize(summary.median);
    }
  }
  state.counters["cells"] = static_cast<double>(cells.size());
  state.SetLabel("summarize over serve's 24 stored hit-request cells");
}
BENCHMARK(bm_summarize_cells)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return qbarren::bench::run_benchmarks(argc, argv);
}
