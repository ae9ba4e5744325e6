#include "qbarren/bp/variance.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {

namespace {

std::string hexfloat_string(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);  // exact, locale-independent
  return buf;
}

/// NaN-filled summary for a failed cell: serializes as null everywhere
/// instead of misleading zeros.
Summary nan_summary() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Summary s;
  s.mean = s.variance = s.stddev = s.min = s.max = s.median = nan;
  return s;
}

}  // namespace

std::string options_fingerprint(const VarianceExperimentOptions& options) {
  return options_fingerprint(kVarianceOptionsTable, options);
}

namespace {

VarianceAnsatzOptions ansatz_options_of(
    const VarianceExperimentOptions& options) {
  VarianceAnsatzOptions ansatz_options;
  ansatz_options.layers = options.layers;
  ansatz_options.entangle = options.entangle;
  ansatz_options.entangler = options.entangler;
  ansatz_options.topology = options.topology;
  return ansatz_options;
}

}  // namespace

Circuit variance_structure(const VarianceExperimentOptions& options,
                           std::size_t qubit_index, std::size_t i) {
  QBARREN_REQUIRE(qubit_index < options.qubit_counts.size(),
                  "variance_structure: qubit_index out of range");
  Rng structure_rng(
      structure_stream_path(qubit_index, i).seed_from(options.seed));
  return variance_ansatz(options.qubit_counts[qubit_index], structure_rng,
                         ansatz_options_of(options));
}

std::size_t sampled_parameter(const Circuit& circuit,
                              GradientParameter which) {
  switch (which) {
    case GradientParameter::kLast:
      return circuit.num_parameters() - 1;
    case GradientParameter::kMiddle:
      return circuit.num_parameters() / 2;
    case GradientParameter::kFirst:
      return 0;
  }
  return circuit.num_parameters() - 1;
}

namespace {

/// Circuit i of one qubit count with its compiled, verified plan attached.
/// The first initializer cell that needs it builds it; the rest read it.
/// A mutex rather than std::once_flag: a throwing build must leave the
/// entry unbuilt for the next reader, and ThreadSanitizer's pthread_once
/// interceptor never resets a once-flag whose callable threw.
struct SharedStructure {
  std::mutex mu;
  std::optional<Circuit> circuit;  ///< set only once the plan is verified
};

/// The compute-once structure memo of one qubit count, shared by all of
/// its initializer cells: entry i holds circuit i, for the first circuits
/// that fit kRowBudgetBytes. `pending_cells` counts the cells that have not
/// finished for good; the last one frees the row.
struct StructureRow {
  StructureRow(std::size_t circuits, std::size_t cells)
      : entries(circuits), pending_cells(cells) {}
  std::vector<SharedStructure> entries;
  std::atomic<std::size_t> pending_cells;
};

/// Footprint cap of one structure row. A row lives from its q's first
/// computed cell to its last, so with one worker every shared circuit stays
/// resident across all of that q's cells. A circuit and its plan take about
/// 100 bytes per operation (95 KB at q = 10, depth 50), so an uncapped
/// 200-circuit row would hold ~19 MB. A row therefore shares only the
/// circuits that fit in the cap; cells build the rest themselves, as the
/// serve worker does. 384 KiB holds four q = 10, depth-50 circuits and
/// keeps the memo to about 7 % of the peak of a small (~9 MiB) serve
/// process that also runs reference grids in-process.
constexpr std::size_t kRowBudgetBytes = std::size_t{384} << 10;
constexpr std::size_t kRetainedBytesPerOperation = 100;

std::size_t shared_circuits_per_row(const VarianceExperimentOptions& options,
                                    std::size_t qubit_index) {
  const std::size_t bytes =
      kRetainedBytesPerOperation *
      variance_ansatz_operations(options.qubit_counts[qubit_index],
                                 ansatz_options_of(options));
  return std::min(options.circuits_per_point, kRowBudgetBytes / bytes);
}

const Circuit& shared_structure(StructureRow& row,
                                const VarianceExperimentOptions& options,
                                std::size_t qubit_index, std::size_t i) {
  SharedStructure& entry = row.entries[i];
  const std::lock_guard<std::mutex> lock(entry.mu);
  if (!entry.circuit) {
    Circuit circuit = variance_structure(options, qubit_index, i);
    // Compile and run the attach hook (plan verification) before the
    // entry is published: if the hook throws, nothing is published and
    // the next reader rebuilds and re-verifies, exactly as when every
    // cell built its own circuit.
    (void)exec::plan_for(circuit);
    entry.circuit.emplace(std::move(circuit));
  }
  return *entry.circuit;
}

/// The body of one (qubit count, initializer) cell. With a `row`, the
/// circuits it holds come from the qubit count's shared memo; the others,
/// and all of them without a row, are built here. Both paths draw the
/// same streams, so the samples are bit-identical.
std::vector<double> variance_cell_samples(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    const Initializer& initializer, std::size_t initializer_index,
    const GradientEngine& engine, const CellContext* ctx,
    StructureRow* row) {
  QBARREN_REQUIRE(qubit_index < options.qubit_counts.size(),
                  "compute_variance_cell: qubit_index out of range");
  const std::size_t q = options.qubit_counts[qubit_index];
  const auto observable = make_cost_observable(options.cost, q);
  std::vector<double> samples(options.circuits_per_point);
  std::optional<Circuit> own;
  for (std::size_t i = 0; i < options.circuits_per_point; ++i) {
    if (ctx != nullptr) {
      ctx->throw_if_cancelled(
          "variance experiment at qubits=" + std::to_string(q) +
          " circuit=" + std::to_string(i));
    }
    // Samples differ in structure; what is shared is a circuit and its
    // plan across the initializers of this q.
    const Circuit& circuit =
        row != nullptr && i < row->entries.size()
            ? shared_structure(*row, options, qubit_index, i)
            : own.emplace(variance_structure(options, qubit_index, i));
    Rng param_rng(parameter_stream_path(qubit_index, i, initializer_index)
                      .seed_from(options.seed));
    const std::vector<double> params =
        initializer.initialize(circuit, param_rng);
    const double g = engine.partial(
        circuit, *observable, params,
        sampled_parameter(circuit, options.which_parameter));
    if (!std::isfinite(g)) {
      throw NumericalError(
          "VarianceExperiment::run: non-finite gradient sample "
          "(initializer '" + initializer.name() + "', qubits " +
          std::to_string(q) + ", circuit " + std::to_string(i) +
          ", engine '" + engine.name() + "')");
    }
    samples[i] = g;
  }
  return samples;
}

}  // namespace

std::vector<double> compute_variance_cell(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    const Initializer& initializer, std::size_t initializer_index,
    const GradientEngine& engine, const CellContext* ctx) {
  return variance_cell_samples(options, qubit_index, initializer,
                               initializer_index, engine, ctx, nullptr);
}

VarianceExperiment::VarianceExperiment(VarianceExperimentOptions options)
    : options_(std::move(options)) {
  QBARREN_REQUIRE(!options_.qubit_counts.empty(),
                  "VarianceExperiment: need at least one qubit count");
  const std::vector<std::size_t>& counts = options_.qubit_counts;
  for (auto q = counts.begin(); q != counts.end(); ++q) {
    QBARREN_REQUIRE(*q >= 1, "VarianceExperiment: qubit counts must be >= 1");
    // A repeated count would give two cells of distinct streams one key.
    QBARREN_REQUIRE(std::find(counts.begin(), q, *q) == q,
                    "VarianceExperiment: qubit count " + std::to_string(*q) +
                        " repeats; its cells would share checkpoint keys");
  }
  QBARREN_REQUIRE(options_.circuits_per_point >= 2,
                  "VarianceExperiment: need >= 2 circuits per point to "
                  "compute a variance");
  QBARREN_REQUIRE(options_.layers >= 1,
                  "VarianceExperiment: need >= 1 layer");
  // Surface an unknown engine name at construction (throws NotFound)
  // instead of after the caller has committed to a long run.
  (void)make_gradient_engine(options_.gradient_engine);
}

VarianceResult VarianceExperiment::run(
    const std::vector<const Initializer*>& initializers) const {
  return run(initializers, RunControl{});
}

VarianceResult VarianceExperiment::run(
    const std::vector<const Initializer*>& initializers,
    const RunControl& control) const {
  QBARREN_REQUIRE(!initializers.empty(),
                  "VarianceExperiment::run: no initializers");
  for (const Initializer* init : initializers) {
    QBARREN_REQUIRE(init != nullptr,
                    "VarianceExperiment::run: null initializer");
  }
  VarianceResult result;
  result.options = options_;
  result.series.resize(initializers.size());
  // Pre-size every point so cells can deposit by (qi, t) index from any
  // worker thread; failed cells keep their NaN statistics.
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    result.series[t].initializer = initializers[t]->name();
    result.series[t].points.resize(options_.qubit_counts.size());
    for (std::size_t qi = 0; qi < options_.qubit_counts.size(); ++qi) {
      result.series[t].points[qi].qubits = options_.qubit_counts[qi];
      result.series[t].points[qi].gradient_summary = nan_summary();
      result.series[t].points[qi].variance =
          std::numeric_limits<double>::quiet_NaN();
    }
  }

  // Sample gradients. Circuit structure streams depend on (q, i) only so
  // every initializer sees the same 200 random circuits per qubit count;
  // parameter streams additionally depend on the initializer index. The
  // cells of one q therefore share each circuit and its compiled plan
  // through that q's structure row, built by whichever cell reaches a
  // circuit first. A shared circuit is the one the cell would have built
  // itself, so each (q, initializer) cell's samples do not depend on which
  // other cells were computed in this process: restoring some cells from
  // a checkpoint, or computing cells concurrently in any order, reproduces
  // a serial uninterrupted run bit-for-bit.
  //
  // Rows exist only for qubit counts with cells to compute; a row is
  // freed as soon as its last scheduled cell has finished for good.
  std::vector<std::unique_ptr<StructureRow>> rows(
      options_.qubit_counts.size());
  const auto finish_row_cell = [&rows](std::size_t qi) {
    if (rows[qi]->pending_cells.fetch_sub(1) == 1) rows[qi].reset();
  };
  CellWork work;
  work.fingerprint = options_fingerprint(options_);
  work.schedule = [&](const PlanCell& cell) {
    std::unique_ptr<StructureRow>& row = rows[cell.qubit_index];
    if (!row) {
      row = std::make_unique<StructureRow>(
          shared_circuits_per_row(options_, cell.qubit_index), 0);
    }
    ++row->pending_cells;
  };
  work.compute = [&](const PlanCell& cell, CellContext& ctx) {
    const std::size_t qi = cell.qubit_index;
    const std::size_t t = cell.initializer_index;
    // Retries recompute the whole cell with the parameter-shift fallback
    // engine — fresh instance per attempt, so stateful engines (fault
    // injection, SPSA) stay cell-deterministic.
    const auto cell_engine =
        ctx.attempt == 0 ? make_gradient_engine(options_.gradient_engine)
                         : std::unique_ptr<GradientEngine>(
                               std::make_unique<ParameterShiftEngine>());
    CheckpointCell payload;
    try {
      payload.vectors["samples"] =
          variance_cell_samples(options_, qi, *initializers[t], t,
                                *cell_engine, &ctx, rows[qi].get());
    } catch (const NumericalError&) {
      // The executor retries only non-finite failures, and only while
      // attempts remain: keep the row for the retry.
      if (ctx.attempt + 1 >= control.max_cell_attempts) finish_row_cell(qi);
      throw;
    } catch (...) {
      finish_row_cell(qi);
      throw;
    }
    finish_row_cell(qi);
    return payload;
  };
  work.deposit = [&](const PlanCell& cell, const CheckpointCell& payload) {
    const std::vector<double>& samples = payload.vector("samples");
    if (samples.size() != options_.circuits_per_point) {
      throw CheckpointError(
          "VarianceExperiment::run: checkpoint cell for q=" +
          std::to_string(options_.qubit_counts[cell.qubit_index]) + " has " +
          std::to_string(samples.size()) + " samples, expected " +
          std::to_string(options_.circuits_per_point));
    }
    VariancePoint& point =
        result.series[cell.initializer_index].points[cell.qubit_index];
    point.gradient_summary = summarize(samples);
    point.variance = point.gradient_summary.variance;
    if (options_.keep_samples) point.samples = samples;
  };
  result.failures = run_cell_plan(
      variance_cell_plan(options_, names_of(initializers)), control, work);

  // Decay fits: ln Var vs qubit count over the positive-variance points.
  for (VarianceSeries& s : result.series) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const VariancePoint& p : s.points) {
      if (p.variance > 0.0) {
        xs.push_back(static_cast<double>(p.qubits));
        ys.push_back(std::log(p.variance));
      }
    }
    if (xs.size() >= 2) {
      s.decay_fit = linear_fit(xs, ys);
    } else {
      s.decay_fit = LinearFit{};  // degenerate; tables will show n = 0
    }
  }
  return result;
}

VarianceResult VarianceExperiment::run_paper_set(FanMode mode) const {
  return run_paper_set(mode, RunControl{});
}

VarianceResult VarianceExperiment::run_paper_set(
    FanMode mode, const RunControl& control) const {
  const auto owned = paper_initializers(mode);
  std::vector<const Initializer*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& init : owned) {
    ptrs.push_back(init.get());
  }
  return run(ptrs, control);
}

std::string positional_fingerprint(const VarianceExperimentOptions& options,
                                   const Initializer& initializer,
                                   const std::vector<double>& fractions) {
  std::string fp = "positional/v1;init=" + initializer.name() + ";fractions=";
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    if (f != 0) fp += ',';
    fp += hexfloat_string(fractions[f]);
  }
  return fp + ";" + options_fingerprint(options);
}

PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions) {
  return positional_variance(options, initializer, std::move(fractions),
                             RunControl{});
}

namespace {
// Checkpoint key of fraction index f within a qubit-count cell. Built via
// += rather than `"f" + std::to_string(f)` because GCC 12 flags the
// char*-plus-rvalue-string operator+ with a spurious -Wrestrict under
// -Werror (GCC bug 105651).
std::string fraction_key(std::size_t f) {
  std::string key = "f";
  key += std::to_string(f);
  return key;
}
}  // namespace

PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions, const RunControl& control) {
  QBARREN_REQUIRE(!fractions.empty(), "positional_variance: no fractions");
  for (const double f : fractions) {
    QBARREN_REQUIRE(f >= 0.0 && f <= 1.0,
                    "positional_variance: fractions must be in [0, 1]");
  }
  const VarianceExperiment checked(options);  // validates the options
  (void)checked;
  PositionalVarianceResult result;
  result.fractions = std::move(fractions);
  result.qubit_counts = options.qubit_counts;
  result.variances.assign(
      result.fractions.size(),
      std::vector<double>(options.qubit_counts.size(),
                          std::numeric_limits<double>::quiet_NaN()));

  // One checkpoint cell "q=<q>" per qubit count holding every fraction's
  // samples ("f0", "f1", ...); the qubit counts are independent sub-streams
  // of the root seed, so per-cell resume — and concurrent execution in any
  // order — is exact.
  CellPlan plan;
  for (std::size_t qi = 0; qi < options.qubit_counts.size(); ++qi) {
    plan.push_back({"q=" + std::to_string(options.qubit_counts[qi]), qi, 0,
                    options.seed, 0});
  }
  CellWork work;
  work.fingerprint = positional_fingerprint(options, initializer,
                                            result.fractions);
  work.compute = [&](const PlanCell& cell, CellContext& ctx) {
    const std::size_t qi = cell.qubit_index;
    const std::size_t q = options.qubit_counts[qi];
    const AdjointEngine engine;
    const auto observable = make_cost_observable(options.cost, q);
    std::vector<std::vector<double>> samples(
        result.fractions.size(),
        std::vector<double>(options.circuits_per_point));
    for (std::size_t i = 0; i < options.circuits_per_point; ++i) {
      ctx.throw_if_cancelled("positional variance at qubits=" +
                             std::to_string(q) +
                             " circuit=" + std::to_string(i));
      const Circuit circuit = variance_structure(options, qi, i);
      Rng param_rng(parameter_stream_path(qi, i, 0).seed_from(options.seed));
      const auto params = initializer.initialize(circuit, param_rng);
      const auto grad = engine.gradient(circuit, *observable, params);

      const std::size_t last = circuit.num_parameters() - 1;
      for (std::size_t f = 0; f < result.fractions.size(); ++f) {
        const auto k = static_cast<std::size_t>(std::llround(
            result.fractions[f] * static_cast<double>(last)));
        if (!std::isfinite(grad[k])) {
          throw NumericalError(
              "positional_variance: non-finite gradient sample at "
              "qubits=" + std::to_string(q) +
              " circuit=" + std::to_string(i));
        }
        samples[f][i] = grad[k];
      }
    }
    CheckpointCell payload;
    for (std::size_t f = 0; f < result.fractions.size(); ++f) {
      payload.vectors[fraction_key(f)] = std::move(samples[f]);
    }
    return payload;
  };
  work.deposit = [&](const PlanCell& cell, const CheckpointCell& payload) {
    for (std::size_t f = 0; f < result.fractions.size(); ++f) {
      const std::vector<double>& stored = payload.vector(fraction_key(f));
      if (stored.size() != options.circuits_per_point) {
        throw CheckpointError("positional_variance: checkpoint cell " +
                              cell.key + " has the wrong sample count");
      }
      result.variances[f][cell.qubit_index] = sample_variance(stored);
    }
  };
  result.failures = run_cell_plan(plan, control, work);
  return result;
}

Table PositionalVarianceResult::table() const {
  std::vector<std::string> headers{"position fraction"};
  for (const std::size_t q : qubit_counts) {
    headers.push_back("Var at q=" + std::to_string(q));
  }
  Table out(std::move(headers));
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    out.begin_row();
    out.push(fractions[f], 2);
    for (std::size_t qi = 0; qi < qubit_counts.size(); ++qi) {
      out.push_sci(variances[f][qi]);
    }
  }
  return out;
}

SlopeConfidenceInterval bootstrap_decay_ci(const VarianceSeries& series,
                                           std::size_t resamples,
                                           double confidence,
                                           std::uint64_t seed) {
  QBARREN_REQUIRE(resamples >= 10,
                  "bootstrap_decay_ci: need >= 10 resamples");
  QBARREN_REQUIRE(confidence > 0.0 && confidence < 1.0,
                  "bootstrap_decay_ci: confidence must be in (0, 1)");
  QBARREN_REQUIRE(series.points.size() >= 2,
                  "bootstrap_decay_ci: need >= 2 qubit points");
  for (const VariancePoint& p : series.points) {
    QBARREN_REQUIRE(p.samples.size() >= 2,
                    "bootstrap_decay_ci: raw samples missing — rerun the "
                    "experiment with keep_samples = true");
  }

  Rng rng(seed);
  std::vector<double> slopes;
  slopes.reserve(resamples);
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> resampled;
  for (std::size_t r = 0; r < resamples; ++r) {
    xs.clear();
    ys.clear();
    for (const VariancePoint& p : series.points) {
      resampled.resize(p.samples.size());
      for (auto& v : resampled) {
        v = p.samples[rng.index(p.samples.size())];
      }
      const double var = sample_variance(resampled);
      if (var > 0.0) {
        xs.push_back(static_cast<double>(p.qubits));
        ys.push_back(std::log(var));
      }
    }
    if (xs.size() >= 2) {
      slopes.push_back(linear_fit(xs, ys).slope);
    }
  }
  QBARREN_REQUIRE(slopes.size() >= 10,
                  "bootstrap_decay_ci: too many degenerate replicates");

  std::sort(slopes.begin(), slopes.end());
  const double alpha = 1.0 - confidence;
  const auto lo_idx = static_cast<std::size_t>(
      alpha / 2.0 * static_cast<double>(slopes.size() - 1));
  const auto hi_idx = static_cast<std::size_t>(
      (1.0 - alpha / 2.0) * static_cast<double>(slopes.size() - 1));

  SlopeConfidenceInterval ci;
  ci.point = series.decay_fit.slope;
  ci.lower = slopes[lo_idx];
  ci.upper = slopes[hi_idx];
  ci.confidence = confidence;
  return ci;
}

const VarianceSeries& VarianceResult::find(
    const std::string& initializer) const {
  for (const VarianceSeries& s : series) {
    if (s.initializer == initializer) {
      return s;
    }
  }
  throw NotFound("VarianceResult::find: no series for initializer '" +
                 initializer + "'");
}

double VarianceResult::improvement_percent(
    const std::string& initializer) const {
  const VarianceSeries& random = find("random");
  const VarianceSeries& target = find(initializer);
  const double random_rate = std::abs(random.decay_fit.slope);
  if (random_rate <= 1e-12) {
    throw NumericalError(
        "VarianceResult::improvement_percent: random decay rate is ~0");
  }
  const double target_rate = std::abs(target.decay_fit.slope);
  return (random_rate - target_rate) / random_rate * 100.0;
}

bool VarianceResult::has_improvement_baseline() const noexcept {
  for (const VarianceSeries& s : series) {
    if (s.initializer == "random") {
      return s.decay_fit.n >= 2 && std::isfinite(s.decay_fit.slope) &&
             std::abs(s.decay_fit.slope) > 1e-12;
    }
  }
  return false;
}

Table VarianceResult::variance_table() const {
  std::vector<std::string> headers{"qubits"};
  for (const VarianceSeries& s : series) {
    headers.push_back("Var[" + s.initializer + "]");
  }
  Table table(std::move(headers));
  if (series.empty()) {
    return table;
  }
  for (std::size_t row = 0; row < series.front().points.size(); ++row) {
    table.begin_row();
    table.push(series.front().points[row].qubits);
    for (const VarianceSeries& s : series) {
      table.push_sci(s.points[row].variance);
    }
  }
  return table;
}

Table VarianceResult::decay_table() const {
  // The improvement column is present whenever a "random" series exists;
  // when its baseline fit is degenerate (failure-budget run, single qubit
  // count) the cells read "n/a" rather than throwing mid-print or
  // silently dropping the column.
  const bool have_random = [&] {
    for (const VarianceSeries& s : series) {
      if (s.initializer == "random") return true;
    }
    return false;
  }();
  const bool baseline_ok = has_improvement_baseline();

  std::vector<std::string> headers{"initializer", "decay slope (ln Var/qubit)",
                                   "R^2"};
  if (have_random) {
    headers.push_back("improvement vs random [%]");
  }
  Table table(std::move(headers));
  for (const VarianceSeries& s : series) {
    table.begin_row();
    table.push(s.initializer);
    table.push(s.decay_fit.slope, 4);
    table.push(s.decay_fit.r_squared, 4);
    if (have_random) {
      if (s.initializer == "random") {
        table.push(std::string("(baseline)"));
      } else if (baseline_ok) {
        table.push(improvement_percent(s.initializer), 1);
      } else {
        table.push(std::string("n/a"));
      }
    }
  }
  return table;
}

}  // namespace qbarren
