// Tests for the variance experiment (paper Fig 5a / §VI-A) at reduced
// scale, including the scientific invariants the reproduction relies on.
#include "qbarren/bp/variance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

VarianceExperimentOptions small_options() {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 4, 6};
  options.circuits_per_point = 30;
  options.layers = 20;
  options.seed = 42;
  return options;
}

TEST(VarianceExperiment, ValidatesOptions) {
  VarianceExperimentOptions bad = small_options();
  bad.qubit_counts.clear();
  EXPECT_THROW(VarianceExperiment{bad}, InvalidArgument);

  bad = small_options();
  bad.circuits_per_point = 1;
  EXPECT_THROW(VarianceExperiment{bad}, InvalidArgument);

  bad = small_options();
  bad.layers = 0;
  EXPECT_THROW(VarianceExperiment{bad}, InvalidArgument);

  bad = small_options();
  bad.qubit_counts = {2, 0, 4};
  EXPECT_THROW(VarianceExperiment{bad}, InvalidArgument);

  bad = small_options();
  bad.gradient_engine = "no-such-engine";
  EXPECT_THROW(VarianceExperiment{bad}, NotFound);

  // The two q=2 points would draw different streams under one checkpoint
  // key, so a resume would restore one as the other.
  bad = small_options();
  bad.qubit_counts = {2, 4, 2};
  EXPECT_THROW(VarianceExperiment{bad}, InvalidArgument);
  const auto random = make_initializer("random");
  EXPECT_THROW((void)positional_variance(bad, *random), InvalidArgument);
}

TEST(VarianceExperiment, RejectsEmptyOrNullInitializers) {
  const VarianceExperiment experiment(small_options());
  EXPECT_THROW((void)experiment.run({}), InvalidArgument);
  EXPECT_THROW((void)experiment.run({nullptr}), InvalidArgument);
}

TEST(VarianceExperiment, ResultShapesMatchOptions) {
  const VarianceExperiment experiment(small_options());
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      experiment.run({random.get(), xavier.get()});

  ASSERT_EQ(result.series.size(), 2u);
  EXPECT_EQ(result.series[0].initializer, "random");
  EXPECT_EQ(result.series[1].initializer, "xavier-normal");
  for (const VarianceSeries& s : result.series) {
    ASSERT_EQ(s.points.size(), 3u);
    EXPECT_EQ(s.points[0].qubits, 2u);
    EXPECT_EQ(s.points[2].qubits, 6u);
    for (const VariancePoint& p : s.points) {
      EXPECT_EQ(p.gradient_summary.count, 30u);
      EXPECT_GT(p.variance, 0.0);
    }
    EXPECT_EQ(s.decay_fit.n, 3u);
  }
}

TEST(VarianceExperiment, DeterministicGivenSeed) {
  const VarianceExperiment experiment(small_options());
  const auto random = make_initializer("random");
  const VarianceResult a = experiment.run({random.get()});
  const VarianceResult b = experiment.run({random.get()});
  for (std::size_t i = 0; i < a.series[0].points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series[0].points[i].variance,
                     b.series[0].points[i].variance);
  }
}

TEST(VarianceExperiment, SeedChangesSamples) {
  VarianceExperimentOptions options = small_options();
  const auto random = make_initializer("random");
  const VarianceResult a = VarianceExperiment(options).run({random.get()});
  options.seed = 43;
  const VarianceResult b = VarianceExperiment(options).run({random.get()});
  EXPECT_NE(a.series[0].points[0].variance, b.series[0].points[0].variance);
}

TEST(VarianceExperiment, RandomVarianceDecaysWithQubits) {
  // The barren-plateau signature itself.
  const VarianceExperiment experiment(small_options());
  const auto random = make_initializer("random");
  const VarianceResult result = experiment.run({random.get()});
  const auto& points = result.series[0].points;
  EXPECT_GT(points[0].variance, points[1].variance);
  EXPECT_GT(points[1].variance, points[2].variance);
  EXPECT_LT(result.series[0].decay_fit.slope, -0.5);
}

TEST(VarianceExperiment, XavierImprovesOverRandom) {
  const VarianceExperiment experiment(small_options());
  const VarianceResult result = experiment.run_paper_set();
  EXPECT_GT(result.improvement_percent("xavier-normal"), 20.0);
  EXPECT_GT(result.improvement_percent("xavier-uniform"), 20.0);
}

TEST(VarianceExperiment, AllEngineChoicesAgree) {
  // The variance statistics are engine-independent because the gradients
  // themselves are identical.
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 10;
  options.layers = 8;
  const auto random = make_initializer("random");

  options.gradient_engine = "parameter-shift";
  const VarianceResult shift =
      VarianceExperiment(options).run({random.get()});
  options.gradient_engine = "adjoint";
  const VarianceResult adjoint =
      VarianceExperiment(options).run({random.get()});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(shift.series[0].points[i].variance,
                adjoint.series[0].points[i].variance, 1e-12);
  }
}

TEST(VarianceExperiment, PaperSetRunsAllSixSeries) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 8;
  options.layers = 6;
  const VarianceResult result =
      VarianceExperiment(options).run_paper_set();
  ASSERT_EQ(result.series.size(), 6u);
  EXPECT_EQ(result.series[0].initializer, "random");
  EXPECT_EQ(result.series[5].initializer, "orthogonal");
}

TEST(VarianceResult, FindAndImprovementValidation) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 8;
  options.layers = 6;
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult no_random =
      VarianceExperiment(options).run({xavier.get()});
  EXPECT_THROW((void)no_random.find("random"), NotFound);
  EXPECT_THROW((void)no_random.improvement_percent("xavier-normal"),
               NotFound);
}

TEST(VarianceResult, TablesHaveExpectedShape) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 8;
  options.layers = 6;
  const VarianceResult result =
      VarianceExperiment(options).run_paper_set();

  const Table variance = result.variance_table();
  EXPECT_EQ(variance.columns(), 7u);  // qubits + 6 initializers
  EXPECT_EQ(variance.rows(), 2u);
  EXPECT_EQ(variance.headers()[1], "Var[random]");

  const Table decay = result.decay_table();
  EXPECT_TRUE(result.has_improvement_baseline());
  EXPECT_EQ(decay.columns(), 4u);
  EXPECT_EQ(decay.rows(), 6u);
  EXPECT_EQ(decay.data()[0][3], "(baseline)");
}

TEST(VarianceResult, DegenerateBaselineKeepsImprovementColumnAsNa) {
  // A single qubit count gives the random series no decay fit (n = 0):
  // the improvement column stays in place with "n/a" cells instead of
  // silently disappearing from an otherwise healthy run.
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2};
  options.circuits_per_point = 8;
  options.layers = 6;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), xavier.get()});
  EXPECT_FALSE(result.has_improvement_baseline());
  const Table decay = result.decay_table();
  EXPECT_EQ(decay.columns(), 4u);
  ASSERT_EQ(decay.rows(), 2u);
  EXPECT_EQ(decay.data()[0][3], "(baseline)");
  EXPECT_EQ(decay.data()[1][3], "n/a");
}

TEST(VarianceResult, DecayTableOmitsImprovementWithoutRandom) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 8;
  options.layers = 6;
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({xavier.get()});
  EXPECT_EQ(result.decay_table().columns(), 3u);
}

TEST(VarianceExperiment, LastParameterOutsideZzLightConeHasZeroGradient) {
  // With the ZZ cost on qubits {0, 1}, the last parameter is a rotation on
  // qubit q-1 followed only by the diagonal CZ ladder, which commutes with
  // Z0 Z1 — the sampled gradients (and hence their variance) are exactly 0
  // for q > 2.
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {4};
  options.circuits_per_point = 10;
  options.layers = 6;
  options.cost = CostKind::kPauliZZ;
  const auto random = make_initializer("random");

  options.which_parameter = GradientParameter::kLast;
  const VarianceResult last =
      VarianceExperiment(options).run({random.get()});
  EXPECT_NEAR(last.series[0].points[0].variance, 0.0, 1e-20);

  // The first parameter sits behind the whole circuit and does not vanish.
  options.which_parameter = GradientParameter::kFirst;
  const VarianceResult first =
      VarianceExperiment(options).run({random.get()});
  EXPECT_GT(first.series[0].points[0].variance, 1e-6);
}

TEST(VarianceExperiment, MiddleParameterChoiceRuns) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {3};
  options.circuits_per_point = 8;
  options.layers = 6;
  options.which_parameter = GradientParameter::kMiddle;
  const auto random = make_initializer("random");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get()});
  EXPECT_GT(result.series[0].points[0].variance, 0.0);
}

TEST(VarianceExperiment, SharedStructuresAcrossInitializers) {
  // Running {random} and {random, xavier} must give the same random series:
  // circuit structures depend only on (seed, q, i).
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {3};
  options.circuits_per_point = 12;
  options.layers = 10;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult alone =
      VarianceExperiment(options).run({random.get()});
  const VarianceResult paired =
      VarianceExperiment(options).run({random.get(), xavier.get()});
  EXPECT_DOUBLE_EQ(alone.series[0].points[0].variance,
                   paired.series[0].points[0].variance);
}

TEST(VarianceExperiment, EveryCellMatchesTheCellBodyWithoutTheSharedMemo) {
  // run() shares each circuit and its plan across a qubit count's cells;
  // compute_variance_cell (the serve worker's path) builds its own. Both
  // must give the same bits, at any job count.
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 8;
  options.layers = 6;
  options.keep_samples = true;
  const auto inits = paper_initializers();
  const ParameterShiftEngine engine;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RunControl control;
    control.jobs = jobs;
    const VarianceResult result = VarianceExperiment(options).run_paper_set(
        FanMode::kLayerTensor, control);
    ASSERT_EQ(result.series.size(), inits.size());
    for (std::size_t t = 0; t < inits.size(); ++t) {
      for (std::size_t qi = 0; qi < options.qubit_counts.size(); ++qi) {
        EXPECT_EQ(result.series[t].points[qi].samples,
                  compute_variance_cell(options, qi, *inits[t], t, engine))
            << "jobs=" << jobs << " init=" << inits[t]->name()
            << " qi=" << qi;
      }
    }
  }
}

/// Delegates to a registry initializer and keeps a weak reference to the
/// plan attached to every circuit it is handed, keyed by qubit count.
struct PlanLog {
  std::mutex mu;
  std::map<std::size_t, std::vector<std::weak_ptr<const ExecutionPlan>>>
      plans;
};

class PlanLoggingInitializer final : public Initializer {
 public:
  PlanLoggingInitializer(std::unique_ptr<Initializer> inner, PlanLog& log)
      : inner_(std::move(inner)), log_(log) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<double> initialize(const Circuit& circuit,
                                               Rng& rng) const override {
    {
      const std::lock_guard<std::mutex> lock(log_.mu);
      log_.plans[circuit.num_qubits()].push_back(circuit.execution_plan());
    }
    return inner_->initialize(circuit, rng);
  }

 private:
  std::unique_ptr<Initializer> inner_;
  PlanLog& log_;
};

TEST(VarianceExperiment, QubitCountSharesStructuresUntilItsLastCell) {
  VarianceExperimentOptions options = small_options();
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 5;
  options.layers = 4;
  PlanLog log;
  std::vector<std::unique_ptr<Initializer>> owned;
  std::vector<const Initializer*> inits;
  for (const char* name : {"random", "xavier-normal", "he"}) {
    owned.push_back(std::make_unique<PlanLoggingInitializer>(
        make_initializer(name), log));
    inits.push_back(owned.back().get());
  }

  // jobs = 1 runs the cells in key order: a qubit count's three cells,
  // then the next count's. The progress callback runs after a cell has
  // finished, so it sees the row still held by the remaining cells and
  // released after the last one.
  std::map<std::size_t, std::size_t> done;
  std::size_t checked = 0;
  RunControl control;
  control.progress = [&](const RunProgress& p) {
    const std::size_t q = p.cell.starts_with("q=2/") ? 2 : 3;
    const bool last = ++done[q] == inits.size();
    const std::lock_guard<std::mutex> lock(log.mu);
    for (const auto& plan : log.plans[q]) {
      EXPECT_EQ(plan.expired(), last) << p.cell;
      ++checked;
    }
  };
  const VarianceResult result = VarianceExperiment(options).run(inits, control);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_GT(checked, 0u);

  for (const std::size_t q : options.qubit_counts) {
    const auto& plans = log.plans[q];
    ASSERT_EQ(plans.size(), inits.size() * options.circuits_per_point);
    std::set<std::weak_ptr<const ExecutionPlan>,
             std::owner_less<std::weak_ptr<const ExecutionPlan>>>
        distinct(plans.begin(), plans.end());
    EXPECT_EQ(distinct.size(), options.circuits_per_point) << "q=" << q;
  }
}

}  // namespace
}  // namespace qbarren
