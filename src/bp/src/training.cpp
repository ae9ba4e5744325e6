#include "qbarren/bp/training.hpp"

#include <algorithm>
#include <limits>

#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {

namespace {

/// Placeholder for a cell that failed within the failure budget: the
/// initializer keeps its series slot with NaN losses and no history.
TrainResult failed_train_result() {
  TrainResult result;
  result.initial_loss = std::numeric_limits<double>::quiet_NaN();
  result.final_loss = std::numeric_limits<double>::quiet_NaN();
  return result;
}

}  // namespace

CheckpointCell checkpoint_cell_from_train_result(const TrainResult& result) {
  CheckpointCell cell;
  cell.vectors["loss_history"] = result.loss_history;
  cell.vectors["gradient_norm_history"] = result.gradient_norm_history;
  cell.vectors["final_params"] = result.final_params;
  cell.scalars["initial_loss"] = result.initial_loss;
  cell.scalars["final_loss"] = result.final_loss;
  cell.scalars["iterations"] = static_cast<double>(result.iterations);
  cell.scalars["reached_target"] = result.reached_target ? 1.0 : 0.0;
  cell.scalars["aborted_non_finite"] =
      result.aborted_non_finite ? 1.0 : 0.0;
  cell.scalars["hit_deadline"] = result.hit_deadline ? 1.0 : 0.0;
  cell.scalars["fallback_invocations"] =
      static_cast<double>(result.fallback_invocations);
  return cell;
}

TrainResult train_result_from_checkpoint_cell(const CheckpointCell& cell) {
  TrainResult result;
  result.loss_history = cell.vector("loss_history");
  result.gradient_norm_history = cell.vector("gradient_norm_history");
  result.final_params = cell.vector("final_params");
  result.initial_loss = cell.scalar("initial_loss");
  result.final_loss = cell.scalar("final_loss");
  result.iterations = static_cast<std::size_t>(cell.scalar("iterations"));
  result.reached_target = cell.scalar("reached_target") != 0.0;
  result.aborted_non_finite = cell.scalar("aborted_non_finite") != 0.0;
  result.hit_deadline = cell.scalar("hit_deadline") != 0.0;
  result.fallback_invocations =
      static_cast<std::size_t>(cell.scalar("fallback_invocations"));
  return result;
}

CostFunction make_training_cost(const TrainingExperimentOptions& options) {
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = options.layers;
  auto circuit = std::make_shared<const Circuit>(
      training_ansatz(options.qubits, ansatz_options));
  return CostFunction(std::move(circuit),
                      make_cost_observable(options.cost, options.qubits));
}

/// Engine, fallback, and optimizer are fresh per call so stateful engines
/// (fault injection, SPSA) stay cell-deterministic under any job count.
TrainResult run_training_cell(const TrainingExperimentOptions& options,
                              const CostFunction& cost,
                              const Initializer& initializer,
                              std::size_t initializer_index,
                              const CellContext& ctx) {
  const std::size_t t = initializer_index;
  const auto engine = make_gradient_engine(options.gradient_engine);
  NonFinitePolicy policy = options.non_finite_policy;
  if (ctx.attempt > 0 && policy == NonFinitePolicy::kThrow) {
    policy = NonFinitePolicy::kFallbackEngine;
  }
  std::unique_ptr<GradientEngine> fallback;
  if (policy == NonFinitePolicy::kFallbackEngine) {
    fallback = std::make_unique<ParameterShiftEngine>();
  }

  TrainOptions train_options;
  train_options.max_iterations = options.iterations;
  train_options.non_finite_policy = policy;
  train_options.fallback_engine = fallback.get();
  train_options.deadline_seconds = options.deadline_seconds;
  // The cell token observes both the per-cell soft deadline and (via the
  // executor's watchdog broadcast) run-wide cancellation.
  train_options.cancel = ctx.cell_token;

  // Each series draws its parameters from an independent child stream of
  // the root seed, so cells are order-independent: restoring some from a
  // checkpoint or training them concurrently cannot shift the randomness
  // of the others.
  Rng param_rng(training_stream_path(t).seed_from(options.seed));
  std::vector<double> params =
      initializer.initialize(cost.circuit(), param_rng);
  const auto optimizer =
      make_optimizer(options.optimizer, options.learning_rate);
  return train(cost, *engine, *optimizer, std::move(params), train_options);
}

std::string options_fingerprint(const TrainingExperimentOptions& options) {
  return options_fingerprint(kTrainingOptionsTable, options);
}

TrainingExperiment::TrainingExperiment(TrainingExperimentOptions options)
    : options_(std::move(options)) {
  QBARREN_REQUIRE(options_.qubits >= 1, "TrainingExperiment: need >= 1 qubit");
  QBARREN_REQUIRE(options_.layers >= 1, "TrainingExperiment: need >= 1 layer");
  QBARREN_REQUIRE(options_.iterations >= 1,
                  "TrainingExperiment: need >= 1 iteration");
  QBARREN_REQUIRE(options_.learning_rate > 0.0,
                  "TrainingExperiment: learning rate must be positive");
  QBARREN_REQUIRE(!(options_.deadline_seconds < 0.0),
                  "TrainingExperiment: deadline must be non-negative");
  // Surface unknown optimizer/engine names at construction (NotFound)
  // instead of after the caller has committed to a long run.
  (void)make_optimizer(options_.optimizer, options_.learning_rate);
  (void)make_gradient_engine(options_.gradient_engine);
}

TrainingResult TrainingExperiment::run(
    const std::vector<const Initializer*>& initializers) const {
  return run(initializers, RunControl{});
}

TrainingResult TrainingExperiment::run(
    const std::vector<const Initializer*>& initializers,
    const RunControl& control) const {
  QBARREN_REQUIRE(!initializers.empty(),
                  "TrainingExperiment::run: no initializers");
  for (const Initializer* init : initializers) {
    QBARREN_REQUIRE(init != nullptr,
                    "TrainingExperiment::run: null initializer");
  }
  const CostFunction cost = make_training_cost(options_);

  TrainingResult result;
  result.options = options_;
  result.series.resize(initializers.size());
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    result.series[t].initializer = initializers[t]->name();
    result.series[t].result = failed_train_result();
  }

  CellWork work;
  work.fingerprint = options_fingerprint(options_);
  work.compute = [&](const PlanCell& cell, CellContext& ctx) {
    ctx.throw_if_cancelled("training experiment at " + cell.key);
    return checkpoint_cell_from_train_result(run_training_cell(
        options_, cost, *initializers[cell.initializer_index],
        cell.initializer_index, ctx));
  };
  work.deposit = [&](const PlanCell& cell, const CheckpointCell& payload) {
    result.series[cell.initializer_index].result =
        train_result_from_checkpoint_cell(payload);
  };
  result.failures = run_cell_plan(
      training_cell_plan(options_, names_of(initializers)), control, work);
  return result;
}

TrainingResult TrainingExperiment::run_paper_set(FanMode mode) const {
  return run_paper_set(mode, RunControl{});
}

TrainingResult TrainingExperiment::run_paper_set(
    FanMode mode, const RunControl& control) const {
  const auto owned = paper_initializers(mode);
  std::vector<const Initializer*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& init : owned) {
    ptrs.push_back(init.get());
  }
  return run(ptrs, control);
}

const TrainingSeries& TrainingResult::find(
    const std::string& initializer) const {
  for (const TrainingSeries& s : series) {
    if (s.initializer == initializer) {
      return s;
    }
  }
  throw NotFound("TrainingResult::find: no series for initializer '" +
                 initializer + "'");
}

Table TrainingResult::loss_table(std::size_t stride) const {
  QBARREN_REQUIRE(stride >= 1, "TrainingResult::loss_table: stride >= 1");
  std::vector<std::string> headers{"iteration"};
  for (const TrainingSeries& s : series) {
    headers.push_back("loss[" + s.initializer + "]");
  }
  Table table(std::move(headers));
  if (series.empty()) {
    return table;
  }
  // Rows span the longest history: a failed series has an empty (and an
  // aborted one a short) loss_history, and must render as NaN cells
  // rather than truncate or over-index the surviving series.
  std::size_t n = 0;
  for (const TrainingSeries& s : series) {
    n = std::max(n, s.result.loss_history.size());
  }
  const auto push_loss = [&table](const TrainingSeries& s, std::size_t it) {
    table.push(it < s.result.loss_history.size()
                   ? s.result.loss_history[it]
                   : std::numeric_limits<double>::quiet_NaN(),
               6);
  };
  for (std::size_t it = 0; it < n; it += stride) {
    table.begin_row();
    table.push(it);
    for (const TrainingSeries& s : series) {
      push_loss(s, it);
    }
  }
  // Always include the final iterate even when stride skips it.
  if (n >= 1 && (n - 1) % stride != 0) {
    table.begin_row();
    table.push(n - 1);
    for (const TrainingSeries& s : series) {
      push_loss(s, n - 1);
    }
  }
  return table;
}

std::string options_fingerprint(const TrainingSweepOptions& options) {
  return "training-sweep/v1;reps=" + std::to_string(options.repetitions) +
         ";" + options_fingerprint(options.base);
}

TrainingSweepResult run_training_sweep(
    const std::vector<const Initializer*>& initializers,
    const TrainingSweepOptions& options) {
  return run_training_sweep(initializers, options, RunControl{});
}

TrainingSweepResult run_training_sweep(
    const std::vector<const Initializer*>& initializers,
    const TrainingSweepOptions& options, const RunControl& control) {
  QBARREN_REQUIRE(options.repetitions >= 2,
                  "run_training_sweep: need >= 2 repetitions for spread");
  QBARREN_REQUIRE(!initializers.empty(),
                  "run_training_sweep: no initializers");
  // Validate the base options once (throws exactly what per-repetition
  // construction used to).
  (void)TrainingExperiment(options.base);

  // All repetitions share one circuit and cost (only the seed differs);
  // both are immutable and safe to evaluate from concurrent cells.
  const CostFunction cost = make_training_cost(options.base);

  TrainingSweepResult result;
  result.options = options;
  result.series.resize(initializers.size());
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    result.series[t].initializer = initializers[t]->name();
    result.series[t].final_losses.assign(
        options.repetitions, std::numeric_limits<double>::quiet_NaN());
  }

  // The whole (repetition x initializer) grid is one plan, so parallelism
  // spans repetitions, not just initializers. Each cell trains under its
  // repetition's root seed.
  CellWork work;
  work.fingerprint = options_fingerprint(options);
  work.compute = [&](const PlanCell& cell, CellContext& ctx) {
    ctx.throw_if_cancelled("training sweep at " + cell.key);
    TrainingExperimentOptions rep_options = options.base;
    rep_options.seed = cell.seed;
    return checkpoint_cell_from_train_result(run_training_cell(
        rep_options, cost, *initializers[cell.initializer_index],
        cell.initializer_index, ctx));
  };
  work.deposit = [&](const PlanCell& cell, const CheckpointCell& payload) {
    result.series[cell.initializer_index].final_losses[cell.repetition] =
        train_result_from_checkpoint_cell(payload).final_loss;
  };
  result.failures = run_cell_plan(
      sweep_cell_plan(options, names_of(initializers)), control, work);

  for (TrainingSweepSeries& s : result.series) {
    s.final_loss_summary = summarize(s.final_losses);
  }
  return result;
}

Table TrainingSweepResult::summary_table() const {
  Table table({"initializer", "mean final loss", "stddev", "min", "max",
               "seeds"});
  for (const TrainingSweepSeries& s : series) {
    table.begin_row();
    table.push(s.initializer);
    table.push(s.final_loss_summary.mean, 6);
    table.push(s.final_loss_summary.stddev, 6);
    table.push(s.final_loss_summary.min, 6);
    table.push(s.final_loss_summary.max, 6);
    table.push(s.final_losses.size());
  }
  return table;
}

Table TrainingResult::summary_table() const {
  Table table({"initializer", "initial loss", "final loss", "loss drop",
               "iterations"});
  for (const TrainingSeries& s : series) {
    table.begin_row();
    table.push(s.initializer);
    table.push(s.result.initial_loss, 6);
    table.push(s.result.final_loss, 6);
    table.push(s.result.initial_loss - s.result.final_loss, 6);
    table.push(s.result.iterations);
  }
  return table;
}

}  // namespace qbarren
