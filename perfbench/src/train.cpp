// train-fig5bc: TrainingExperiment::run_paper_set for Fig 5b (gradient
// descent) and Fig 5c (Adam) — 10 qubits, 5 layers, 50 iterations, lr 0.1,
// the default adjoint engine, one job. A unit is one initializer's series;
// a runner call (six series) is one attempted operation.
#include <bit>
#include <deque>
#include <stdexcept>
#include <vector>

#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/optimizers.hpp"
#include "qbarren/opt/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qbarren;

namespace {

constexpr const char* kPrefix = "train-fig5bc.";
constexpr const char* kOptimizers[] = {"gradient-descent", "adam"};

TrainingExperimentOptions train_options(std::uint64_t seed,
                                        const char* optimizer) {
  TrainingExperimentOptions options;  // paper defaults otherwise
  options.seed = seed;
  options.optimizer = optimizer;
  return options;
}

/// Final loss of every series, bit-exact.
JsonValue losses_of(const TrainingResult& result) {
  if (!result.failures.empty()) {
    throw std::runtime_error("train-fig5bc: run reported failed cells");
  }
  JsonValue losses = JsonValue::object();
  for (const TrainingSeries& series : result.series) {
    losses.set(series.initializer, hexfloat(series.result.final_loss));
  }
  return losses;
}

double time_preflight() {
  const Clock::time_point start = Clock::now();
  for (const char* optimizer : kOptimizers) {
    const TrainingExperiment experiment(train_options(0, optimizer));
    // Findings (QB002 on the paper's global cost) warn; `train` launches.
    (void)lint_training_options(experiment.options());
  }
  return seconds_between(start, Clock::now());
}

/// One run_paper_set call; appends each series' time (from the runner's
/// per-cell progress stamps) to `series_s`.
TrainingResult timed_run(const TrainingExperiment& experiment,
                         std::vector<double>& series_s) {
  std::vector<Clock::time_point> stamps;
  RunControl control;
  control.jobs = 1;
  control.progress = [&stamps](const RunProgress&) {
    stamps.push_back(Clock::now());
  };
  stamps.reserve(8);
  const Clock::time_point start = Clock::now();
  TrainingResult result =
      experiment.run_paper_set(FanMode::kLayerTensor, control);
  Clock::time_point previous = start;
  for (const Clock::time_point stamp : stamps) {
    series_s.push_back(seconds_between(previous, stamp));
    previous = stamp;
  }
  return result;
}

}  // namespace

JsonValue train_signature(std::uint64_t seed) {
  JsonValue sig = JsonValue::object();
  for (const char* optimizer : kOptimizers) {
    RunControl control;
    control.jobs = 1;
    sig.set(optimizer, losses_of(TrainingExperiment(
                                     train_options(seed, optimizer))
                                     .run_paper_set(FanMode::kLayerTensor,
                                                    control)));
  }
  return sig;
}

void run_train(const RunOptions& run, const JsonValue& reference,
               Report& report) {
  // Set-up is sampled between units too, so it sees the same host load.
  std::vector<double> setup;
  for (int i = 0; i < 20; ++i) setup.push_back(time_preflight());

  // One arm per optimizer: its runner, the store its hit path restores
  // from, and the first run's results every later run must reproduce.
  struct Arm {
    explicit Arm(const TrainingExperimentOptions& options)
        : experiment(options),
          store(std::string(), options_fingerprint(options)) {}
    TrainingExperiment experiment;
    Checkpoint store;
    std::string losses;
    std::string json;
  };
  std::deque<Arm> arms;
  JsonValue first = JsonValue::object();
  for (const char* optimizer : kOptimizers) {
    Arm& arm = arms.emplace_back(train_options(run.seed, optimizer));
    RunControl recording;
    recording.jobs = 1;
    recording.checkpoint = &arm.store;
    ++report.attempted;
    const TrainingResult result =
        arm.experiment.run_paper_set(FanMode::kLayerTensor, recording);
    const JsonValue losses = losses_of(result);
    arm.losses = losses.dump();
    arm.json = to_json(result).dump();
    first.set(optimizer, losses);
  }
  if (!reference.is_null() && reference.dump() != first.dump()) {
    report.fail("train-fig5bc: final losses differ from the stored reference");
  }

  std::vector<double> series;
  std::vector<double> hits;
  std::size_t next_arm = 0;
  repeat_for(run.seconds, 4, report, [&] {
    for (int i = 0; i < 20; ++i) setup.push_back(time_preflight());
    Arm& arm = arms[next_arm];
    next_arm = (next_arm + 1) % arms.size();
    const TrainingResult result = timed_run(arm.experiment, series);
    RunControl restore;
    restore.checkpoint = &arm.store;
    restore.restore_only = true;
    for (int rep = 0; rep < 4; ++rep) {
      const Clock::time_point start = Clock::now();
      const std::string restored =
          to_json(arm.experiment.run_paper_set(FanMode::kLayerTensor, restore))
              .dump();
      hits.push_back(seconds_between(start, Clock::now()));
      if (restored != arm.json) {
        throw std::runtime_error("train-fig5bc: restored result differs");
      }
    }
    if (losses_of(result).dump() != arm.losses) {
      throw std::runtime_error("train-fig5bc: run differs from the first");
    }
  });

  const double steps = static_cast<double>(arms.front().experiment.options()
                                               .iterations);
  const double scale = report.host_scale();
  report.add("items_per_s", steps / (fast_decile(series) * scale), "1/s");
  report.add("setup_s", fast_decile(setup) * scale, "s");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add("hit_latency_s", fast_decile(hits) * scale, "s");
  note("train-fig5bc raw (unscaled) times; host scale " +
       std::to_string(scale));
  note("train-fig5bc series_s " + describe(series));
  note("train-fig5bc hit_latency_s " + describe(hits));
  note("train-fig5bc setup_s " + describe(setup));
}

void trace_train(const RunOptions& run, Report& report) {
  std::vector<double> preflight;
  for (int i = 0; i < 10; ++i) preflight.push_back(time_preflight());

  std::vector<TrainingExperiment> experiments;
  for (const char* optimizer : kOptimizers) {
    experiments.emplace_back(train_options(run.seed, optimizer));
  }
  // Replay: make_training_cost -> AdjointEngine::value_and_gradient ->
  // Optimizer::step, as train() sequences them, from the replay's own
  // start points. Each series must reproduce train()'s loss history. A
  // runner call (six series) precedes each six replayed series, so both
  // see the same host load.
  const auto initializers = paper_initializers();
  const Rng replay_root = Rng(run.seed).child(0x7265706c6179ULL);
  LayerTrace trace;
  std::vector<double> runner;
  std::vector<double> traced_units;
  std::size_t unit_index = 0;
  repeat_for(run.seconds, 2 * initializers.size(), report, [&] {
    const std::size_t u = unit_index++;
    const TrainingExperiment& experiment =
        experiments[(u / initializers.size()) % experiments.size()];
    const TrainingExperimentOptions& options = experiment.options();
    const Initializer& initializer = *initializers[u % initializers.size()];
    if (u % initializers.size() == 0) (void)timed_run(experiment, runner);
    Rng draw = replay_root.child(u);

    const Clock::time_point unit_start = Clock::now();
    Clock::time_point now = unit_start;
    const CostFunction cost = make_training_cost(options);
    now = trace.span("obs.make_cost_s", now);
    const auto plan = exec::plan_for(cost.circuit());
    now = trace.span("exec.compile_s", now);
    const std::vector<double> start_params =
        initializer.initialize(cost.circuit(), draw);
    now = trace.span("init.initialize_s", now);
    const auto engine = make_gradient_engine(options.gradient_engine);
    const auto optimizer =
        make_optimizer(options.optimizer, options.learning_rate);
    std::vector<double> params = start_params;
    optimizer->reset(params.size());
    now = trace.span("opt.step_s", now);
    std::vector<double> losses{cost.value(params)};
    now = trace.span("obs.cost_value_s", now);
    for (std::size_t it = 0; it < options.iterations; ++it) {
      const ValueAndGradient vg =
          engine->value_and_gradient(cost.circuit(), cost.observable(), params);
      now = trace.span("grad.adjoint_s", now);
      optimizer->step(params, vg.gradient);
      now = trace.span("opt.step_s", now);
      losses.push_back(cost.value(params));
      now = trace.span("obs.cost_value_s", now);
      trace.count("grad.adjoint_calls", 1.0);
    }
    traced_units.push_back(seconds_between(unit_start, now));
    trace.count("exec.computed_flops", estimate_plan_resources(*plan).flops);
    trace.end_unit();

    TrainOptions train_options;
    train_options.max_iterations = options.iterations;
    const auto fresh = make_optimizer(options.optimizer, options.learning_rate);
    const TrainResult expected =
        train(cost, *engine, *fresh, start_params, train_options);
    bool same = expected.loss_history.size() == losses.size();
    for (std::size_t k = 0; same && k < losses.size(); ++k) {
      same = std::bit_cast<std::uint64_t>(losses[k]) ==
             std::bit_cast<std::uint64_t>(expected.loss_history[k]);
    }
    if (!same) {
      throw std::runtime_error(
          "train-fig5bc: replayed loss history differs from train()");
    }
  });

  // Busy time of every replayed layer: the attributed share of a series.
  constexpr const char* kLayers[] = {"obs.make_cost_s",   "exec.compile_s",
                                     "init.initialize_s", "grad.adjoint_s",
                                     "opt.step_s",        "obs.cost_value_s"};
  std::vector<double> attributed(traced_units.size(), 0.0);
  for (const char* layer : kLayers) {
    const std::vector<double> column = trace.samples(layer);
    for (std::size_t u = 0; u < column.size(); ++u) attributed[u] += column[u];
  }
  const double runner_p10 = fast_decile(runner);
  const double attributed_p10 = fast_decile(attributed);

  const std::string prefix = kPrefix;
  for (const char* layer : kLayers) {
    report.add(prefix + layer, fast_decile(trace.samples(layer)), "s");
  }
  report.add(prefix + "grad.adjoint_calls",
             quantile(trace.samples("grad.adjoint_calls"), 0.5), "count");
  report.add(prefix + "exec.computed_flops",
             quantile(trace.samples("exec.computed_flops"), 0.5), "flop");
  report.add(prefix + "analysis.preflight_s", fast_decile(preflight), "s");
  report.add(prefix + "bp.unattributed_s", runner_p10 - attributed_p10, "s");
  report.add(prefix + "bp.coverage", attributed_p10 / runner_p10, "ratio");
  report.add(prefix + "trace.overhead",
             fast_decile(traced_units) / runner_p10 - 1.0, "ratio");

  note("train-fig5bc runner series_s " + describe(runner));
  note("train-fig5bc traced series_s " + describe(traced_units));
  for (const std::string& name : trace.names()) {
    note("train-fig5bc " + name + " " + describe(trace.samples(name)));
  }
}

}  // namespace perfbench
