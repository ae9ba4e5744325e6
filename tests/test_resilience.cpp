// End-to-end resilience tests: deterministic fault injection through the
// gradient-engine decorators, every non-finite recovery policy in train(),
// and interrupt/resume round trips that must reproduce an uninterrupted
// run bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <functional>

#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/guard.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/trainer.hpp"

namespace qbarren {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  fs::remove(path);
  return path;
}

// --- fault-injection decorators ---------------------------------------------

struct SmallProblem {
  std::shared_ptr<const Circuit> circuit;
  CostFunction cost;
  std::vector<double> params;

  SmallProblem()
      : circuit(std::make_shared<const Circuit>(
            training_ansatz(3, TrainingAnsatzOptions{.layers = 2}))),
        cost(make_identity_cost(circuit)),
        params(circuit->num_parameters(), 0.3) {}
};

TEST(FaultInjectedEngine, PoisonsExactlyTheConfiguredCall) {
  const SmallProblem p;
  const auto engine = make_gradient_engine("nan-at:1:adjoint");
  EXPECT_EQ(engine->name(), "nan-at:1:adjoint");

  const auto finite = [](const std::vector<double>& g) {
    for (const double x : g) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  };
  const auto g0 = engine->gradient(*p.circuit, p.cost.observable(), p.params);
  const auto g1 = engine->gradient(*p.circuit, p.cost.observable(), p.params);
  const auto g2 = engine->gradient(*p.circuit, p.cost.observable(), p.params);
  EXPECT_TRUE(finite(g0));
  EXPECT_FALSE(finite(g1));  // call index 1 is the poisoned one
  EXPECT_TRUE(finite(g2));
}

TEST(FaultInjectedEngine, PartialAndValueAndGradientAlsoCounted) {
  const SmallProblem p;
  const auto engine = make_gradient_engine("nan-at:0:parameter-shift");
  EXPECT_TRUE(std::isnan(
      engine->partial(*p.circuit, p.cost.observable(), p.params, 0)));
  // The counter advanced past the fault: later calls are clean.
  const ValueAndGradient vg =
      engine->value_and_gradient(*p.circuit, p.cost.observable(), p.params);
  EXPECT_TRUE(std::isfinite(vg.value));
  for (const double g : vg.gradient) {
    EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(NonFiniteGuardEngine, ThrowsAtThePointOfProduction) {
  const SmallProblem p;
  const auto guarded = make_gradient_engine("guarded:nan-at:0:adjoint");
  EXPECT_EQ(guarded->name(), "guarded:nan-at:0:adjoint");
  EXPECT_THROW(
      (void)guarded->gradient(*p.circuit, p.cost.observable(), p.params),
      NumericalError);

  const auto guarded_partial = make_gradient_engine("guarded:nan-at:0:adjoint");
  EXPECT_THROW((void)guarded_partial->partial(*p.circuit, p.cost.observable(),
                                              p.params, 0),
               NumericalError);
}

TEST(NonFiniteGuardEngine, TransparentForFiniteOutput) {
  const SmallProblem p;
  const auto plain = make_gradient_engine("adjoint");
  const auto guarded = make_gradient_engine("guarded:adjoint");
  const auto g_plain =
      plain->gradient(*p.circuit, p.cost.observable(), p.params);
  const auto g_guarded =
      guarded->gradient(*p.circuit, p.cost.observable(), p.params);
  EXPECT_EQ(g_plain, g_guarded);
}

TEST(GradientEngineFactory, RejectsMalformedDecoratorNames) {
  EXPECT_THROW((void)make_gradient_engine("nan-at:x:adjoint"), NotFound);
  EXPECT_THROW((void)make_gradient_engine("nan-at:3"), NotFound);
  EXPECT_THROW((void)make_gradient_engine("nan-at:3:no-such-engine"),
               NotFound);
  EXPECT_THROW((void)make_gradient_engine("guarded:"), NotFound);
}

// The crash/hang decorators themselves are only *triggered* through the
// serve process tests (an in-process abort() would take gtest down with
// it); here we pin down their construction, naming, and pre-fault
// transparency.
TEST(FaultInjectedEngine, CrashAndHangDecoratorsParseAndRoundTripNames) {
  const auto crash = make_gradient_engine("crash-at:3:adjoint");
  EXPECT_EQ(crash->name(), "crash-at:3:adjoint");
  const auto hang = make_gradient_engine("hang-at:0:parameter-shift");
  EXPECT_EQ(hang->name(), "hang-at:0:parameter-shift");
  // Decorators nest like any engine name.
  const auto nested = make_gradient_engine("guarded:crash-at:2:adjoint");
  EXPECT_EQ(nested->name(), "guarded:crash-at:2:adjoint");

  EXPECT_THROW((void)make_gradient_engine("crash-at:x:adjoint"), NotFound);
  EXPECT_THROW((void)make_gradient_engine("crash-at:3"), NotFound);
  EXPECT_THROW((void)make_gradient_engine("hang-at::adjoint"), NotFound);
  EXPECT_THROW((void)make_gradient_engine("hang-at:1:no-such-engine"),
               NotFound);
}

TEST(FaultInjectedEngine, CrashDecoratorTransparentBeforeConfiguredCall) {
  const SmallProblem p;
  // Fault scheduled far beyond the calls made here: every output must be
  // bit-identical to the undecorated engine's.
  const auto decorated = make_gradient_engine("crash-at:100:adjoint");
  const auto plain = make_gradient_engine("adjoint");
  EXPECT_EQ(decorated->gradient(*p.circuit, p.cost.observable(), p.params),
            plain->gradient(*p.circuit, p.cost.observable(), p.params));
  EXPECT_EQ(decorated->partial(*p.circuit, p.cost.observable(), p.params, 1),
            plain->partial(*p.circuit, p.cost.observable(), p.params, 1));
}

// --- train() non-finite policies --------------------------------------------

TrainResult train_small(const std::string& engine_name,
                        const TrainOptions& options) {
  const SmallProblem p;
  const auto engine = make_gradient_engine(engine_name);
  const auto optimizer = make_optimizer("gradient-descent", 0.1);
  return train(p.cost, *engine, *optimizer, p.params, options);
}

TEST(TrainNonFinite, ThrowPolicyFailsLoudly) {
  TrainOptions options;
  options.max_iterations = 5;
  options.non_finite_policy = NonFinitePolicy::kThrow;
  EXPECT_THROW((void)train_small("nan-at:2:adjoint", options),
               NumericalError);
}

TEST(TrainNonFinite, AbortSeriesKeepsPartialHistory) {
  TrainOptions options;
  options.max_iterations = 5;
  options.non_finite_policy = NonFinitePolicy::kAbortSeries;
  const TrainResult result = train_small("nan-at:2:adjoint", options);
  EXPECT_TRUE(result.aborted_non_finite);
  EXPECT_FALSE(result.hit_deadline);
  // Iterations 0 and 1 completed; the poisoned gradient at iteration 2
  // stopped the series before its step.
  EXPECT_EQ(result.iterations, 2u);
  EXPECT_EQ(result.loss_history.size(), 3u);
  EXPECT_EQ(result.final_loss, result.loss_history.back());
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(TrainNonFinite, FallbackEngineRecoversAndFinishes) {
  TrainOptions clean_options;
  clean_options.max_iterations = 5;
  const TrainResult clean = train_small("adjoint", clean_options);

  TrainOptions options = clean_options;
  options.non_finite_policy = NonFinitePolicy::kFallbackEngine;
  const ParameterShiftEngine fallback;
  options.fallback_engine = &fallback;
  const TrainResult result = train_small("nan-at:2:adjoint", options);

  EXPECT_FALSE(result.aborted_non_finite);
  EXPECT_EQ(result.fallback_invocations, 1u);
  EXPECT_EQ(result.iterations, 5u);
  ASSERT_EQ(result.loss_history.size(), clean.loss_history.size());
  // Parameter-shift computes the same gradients as adjoint (up to fp
  // noise), so the recovered trajectory matches the clean one.
  for (std::size_t i = 0; i < clean.loss_history.size(); ++i) {
    EXPECT_NEAR(result.loss_history[i], clean.loss_history[i], 1e-9);
  }
}

TEST(TrainNonFinite, FallbackAlsoFaultyThrows) {
  TrainOptions options;
  options.max_iterations = 5;
  options.non_finite_policy = NonFinitePolicy::kFallbackEngine;
  // The fallback's first call (index 0) is poisoned too: at the primary's
  // fault the retry produces another NaN and the loop must give up.
  const auto faulty_fallback = make_gradient_engine("nan-at:0:adjoint");
  options.fallback_engine = faulty_fallback.get();
  EXPECT_THROW((void)train_small("nan-at:2:adjoint", options),
               NumericalError);
}

TEST(TrainNonFinite, FallbackPolicyRequiresEngine) {
  TrainOptions options;
  options.non_finite_policy = NonFinitePolicy::kFallbackEngine;
  EXPECT_THROW((void)train_small("adjoint", options), InvalidArgument);
}

TEST(TrainDeadline, ZeroDeadlineStopsBeforeFirstStep) {
  TrainOptions options;
  options.max_iterations = 50;
  options.deadline_seconds = 0.0;
  const TrainResult result = train_small("adjoint", options);
  EXPECT_TRUE(result.hit_deadline);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.loss_history.size(), 1u);
  EXPECT_EQ(result.final_loss, result.initial_loss);
}

TEST(TrainDeadline, NegativeDeadlineRejected) {
  TrainOptions options;
  options.deadline_seconds = -1.0;
  EXPECT_THROW((void)train_small("adjoint", options), InvalidArgument);
}

TEST(TrainCancel, PreCancelledTokenThrowsBeforeAnyStep) {
  CancellationToken token;
  token.request_cancel();
  TrainOptions options;
  options.cancel = &token;
  EXPECT_THROW((void)train_small("adjoint", options), Cancelled);
}

// --- experiment-level fault handling ----------------------------------------

TrainingExperimentOptions faulty_training_options() {
  TrainingExperimentOptions options;
  options.qubits = 3;
  options.layers = 2;
  options.iterations = 5;
  options.gradient_engine = "nan-at:2:adjoint";
  return options;
}

TEST(TrainingExperimentNonFinite, ThrowPolicy) {
  TrainingExperimentOptions options = faulty_training_options();
  options.non_finite_policy = NonFinitePolicy::kThrow;
  const auto init = make_initializer("xavier-normal");
  EXPECT_THROW((void)TrainingExperiment(options).run({init.get()}),
               NumericalError);
}

TEST(TrainingExperimentNonFinite, AbortSeriesPolicy) {
  TrainingExperimentOptions options = faulty_training_options();
  options.non_finite_policy = NonFinitePolicy::kAbortSeries;
  const auto init = make_initializer("xavier-normal");
  const TrainingResult result = TrainingExperiment(options).run({init.get()});
  EXPECT_TRUE(result.series[0].result.aborted_non_finite);
  EXPECT_EQ(result.series[0].result.iterations, 2u);
}

TEST(TrainingExperimentNonFinite, FallbackPolicySuppliesParameterShift) {
  TrainingExperimentOptions clean = faulty_training_options();
  clean.gradient_engine = "adjoint";
  const auto init = make_initializer("xavier-normal");
  const TrainingResult reference =
      TrainingExperiment(clean).run({init.get()});

  TrainingExperimentOptions options = faulty_training_options();
  options.non_finite_policy = NonFinitePolicy::kFallbackEngine;
  const TrainingResult result = TrainingExperiment(options).run({init.get()});
  const TrainResult& r = result.series[0].result;
  EXPECT_FALSE(r.aborted_non_finite);
  EXPECT_EQ(r.fallback_invocations, 1u);
  EXPECT_EQ(r.iterations, 5u);
  const TrainResult& ref = reference.series[0].result;
  ASSERT_EQ(r.loss_history.size(), ref.loss_history.size());
  for (std::size_t i = 0; i < ref.loss_history.size(); ++i) {
    EXPECT_NEAR(r.loss_history[i], ref.loss_history[i], 1e-9);
  }
}

TEST(VarianceExperimentNonFinite, NanSampleThrowsNamingTheCell) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2};
  options.circuits_per_point = 6;
  options.layers = 2;
  options.gradient_engine = "nan-at:3:parameter-shift";
  const auto init = make_initializer("random");
  try {
    (void)VarianceExperiment(options).run({init.get()});
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("random"), std::string::npos) << what;
  }
}

// --- interrupt / resume round trips -----------------------------------------

VarianceExperimentOptions small_variance_options() {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 6;
  options.layers = 2;
  options.seed = 42;
  return options;
}

void expect_same_variance(const VarianceResult& a, const VarianceResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s].initializer, b.series[s].initializer);
    ASSERT_EQ(a.series[s].points.size(), b.series[s].points.size());
    for (std::size_t i = 0; i < a.series[s].points.size(); ++i) {
      const VariancePoint& pa = a.series[s].points[i];
      const VariancePoint& pb = b.series[s].points[i];
      EXPECT_EQ(pa.qubits, pb.qubits);
      EXPECT_EQ(pa.variance, pb.variance);  // bit-for-bit, not NEAR
      EXPECT_EQ(pa.gradient_summary.mean, pb.gradient_summary.mean);
      EXPECT_EQ(pa.gradient_summary.min, pb.gradient_summary.min);
      EXPECT_EQ(pa.gradient_summary.max, pb.gradient_summary.max);
      EXPECT_EQ(pa.gradient_summary.median, pb.gradient_summary.median);
    }
    EXPECT_EQ(a.series[s].decay_fit.slope, b.series[s].decay_fit.slope);
    EXPECT_EQ(a.series[s].decay_fit.intercept,
              b.series[s].decay_fit.intercept);
    EXPECT_EQ(a.series[s].decay_fit.r_squared,
              b.series[s].decay_fit.r_squared);
  }
}

TEST(ResumeVariance, InterruptedRunMatchesReferenceBitForBit) {
  const VarianceExperimentOptions options = small_variance_options();
  const VarianceExperiment experiment(options);
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const std::vector<const Initializer*> inits = {random.get(), xavier.get()};

  const VarianceResult reference = experiment.run(inits);

  // Interrupt after the first qubit count's cells. (Initializers of one
  // qubit count share a circuit-sampling pass, so cells complete per
  // qubit count — cancel at that boundary.)
  const std::string path = temp_path("resume_variance.ckpt");
  const std::string fingerprint = options_fingerprint(options);
  {
    Checkpoint ckpt(path, fingerprint);
    CancellationToken token;
    RunControl control;
    control.cancel = &token;
    control.checkpoint = &ckpt;
    control.progress = [&token](const RunProgress& p) {
      if (p.completed == 2) token.request_cancel();
    };
    EXPECT_THROW((void)experiment.run(inits, control), Cancelled);
  }

  // The flushed checkpoint on disk is valid and holds the finished cells.
  EXPECT_EQ(Checkpoint::load(path, fingerprint).cell_count(), 2u);

  // Resume: restored cells + the remaining computed cell reproduce the
  // uninterrupted reference exactly.
  Checkpoint resumed = Checkpoint::open(path, fingerprint, /*resume=*/true);
  RunControl control;
  control.checkpoint = &resumed;
  std::size_t restored = 0;
  control.progress = [&restored](const RunProgress& p) {
    if (p.from_checkpoint) ++restored;
  };
  const VarianceResult result = experiment.run(inits, control);
  EXPECT_EQ(restored, 2u);
  expect_same_variance(reference, result);
}

TEST(ResumeVariance, StaleCheckpointRefused) {
  const VarianceExperiment experiment(small_variance_options());
  const auto init = make_initializer("random");
  Checkpoint stale("", "variance/v1;some=other;options=entirely");
  RunControl control;
  control.checkpoint = &stale;
  EXPECT_THROW((void)experiment.run({init.get()}, control), CheckpointError);
}

TEST(ResumeVariance, HookFreeControlMatchesPlainRun) {
  const VarianceExperiment experiment(small_variance_options());
  const auto init = make_initializer("random");
  const VarianceResult plain = experiment.run({init.get()});
  const VarianceResult hooked = experiment.run({init.get()}, RunControl{});
  expect_same_variance(plain, hooked);
}

TEST(ResumeTraining, InterruptedRunMatchesReferenceBitForBit) {
  TrainingExperimentOptions options;
  options.qubits = 3;
  options.layers = 2;
  options.iterations = 6;
  const TrainingExperiment experiment(options);
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const std::vector<const Initializer*> inits = {random.get(), xavier.get()};

  const TrainingResult reference = experiment.run(inits);

  const std::string path = temp_path("resume_training.ckpt");
  const std::string fingerprint = options_fingerprint(options);
  {
    Checkpoint ckpt(path, fingerprint);
    CancellationToken token;
    RunControl control;
    control.cancel = &token;
    control.checkpoint = &ckpt;
    control.progress = [&token](const RunProgress& p) {
      if (p.completed == 1) token.request_cancel();
    };
    EXPECT_THROW((void)experiment.run(inits, control), Cancelled);
  }
  EXPECT_EQ(Checkpoint::load(path, fingerprint).cell_count(), 1u);

  Checkpoint resumed = Checkpoint::open(path, fingerprint, /*resume=*/true);
  RunControl control;
  control.checkpoint = &resumed;
  const TrainingResult result = experiment.run(inits, control);

  ASSERT_EQ(result.series.size(), reference.series.size());
  for (std::size_t s = 0; s < reference.series.size(); ++s) {
    const TrainResult& a = reference.series[s].result;
    const TrainResult& b = result.series[s].result;
    EXPECT_EQ(a.loss_history, b.loss_history);  // exact vector equality
    EXPECT_EQ(a.gradient_norm_history, b.gradient_norm_history);
    EXPECT_EQ(a.final_params, b.final_params);
    EXPECT_EQ(a.initial_loss, b.initial_loss);
    EXPECT_EQ(a.final_loss, b.final_loss);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.reached_target, b.reached_target);
    EXPECT_EQ(a.aborted_non_finite, b.aborted_non_finite);
    EXPECT_EQ(a.hit_deadline, b.hit_deadline);
    EXPECT_EQ(a.fallback_invocations, b.fallback_invocations);
  }
}

TEST(ResumeTraining, StaleCheckpointRefused) {
  TrainingExperimentOptions options;
  options.qubits = 3;
  options.layers = 2;
  options.iterations = 2;
  const auto init = make_initializer("random");
  Checkpoint stale("", "training/v1;different");
  RunControl control;
  control.checkpoint = &stale;
  EXPECT_THROW((void)TrainingExperiment(options).run({init.get()}, control),
               CheckpointError);
}

TEST(ResumeSweep, SigintMidSweepFlushesValidCheckpointAndResumes) {
  TrainingSweepOptions sweep;
  sweep.base.qubits = 3;
  sweep.base.layers = 2;
  sweep.base.iterations = 4;
  sweep.repetitions = 2;
  const auto init = make_initializer("xavier-normal");
  const std::vector<const Initializer*> inits = {init.get()};

  const TrainingSweepResult reference = run_training_sweep(inits, sweep);

  // A real SIGINT, raised from the progress hook after the first of the
  // two (repetition, initializer) cells, lands in the signal bridge and
  // cancels the sweep cooperatively.
  const std::string path = temp_path("resume_sweep.ckpt");
  const std::string fingerprint = options_fingerprint(sweep);
  {
    Checkpoint ckpt(path, fingerprint);
    CancellationToken token;
    ScopedSignalCancellation signal_guard(token);
    RunControl control;
    control.cancel = &token;
    control.checkpoint = &ckpt;
    control.progress = [](const RunProgress& p) {
      if (p.completed == 1) std::raise(SIGINT);
    };
    EXPECT_THROW((void)run_training_sweep(inits, sweep, control), Cancelled);
    EXPECT_TRUE(token.cancelled());
  }

  // The interrupted sweep left a loadable checkpoint with the finished
  // repetition, namespaced per repetition.
  const Checkpoint on_disk = Checkpoint::load(path, fingerprint);
  EXPECT_EQ(on_disk.cell_count(), 1u);
  EXPECT_TRUE(on_disk.has_cell("rep=0/init=xavier-normal"));

  Checkpoint resumed = Checkpoint::open(path, fingerprint, /*resume=*/true);
  RunControl control;
  control.checkpoint = &resumed;
  const TrainingSweepResult result = run_training_sweep(inits, sweep, control);

  ASSERT_EQ(result.series.size(), reference.series.size());
  for (std::size_t s = 0; s < reference.series.size(); ++s) {
    EXPECT_EQ(result.series[s].initializer, reference.series[s].initializer);
    EXPECT_EQ(result.series[s].final_losses,
              reference.series[s].final_losses);  // exact
    EXPECT_EQ(result.series[s].final_loss_summary.mean,
              reference.series[s].final_loss_summary.mean);
  }
}

TEST(ResumeSweep, StaleCheckpointRefused) {
  TrainingSweepOptions sweep;
  sweep.base.qubits = 3;
  sweep.base.layers = 2;
  sweep.base.iterations = 2;
  sweep.repetitions = 2;
  const auto init = make_initializer("random");
  Checkpoint stale("", "training-sweep/v1;different");
  RunControl control;
  control.checkpoint = &stale;
  EXPECT_THROW((void)run_training_sweep({init.get()}, sweep, control),
               CheckpointError);
}

TEST(ResumePositionalVariance, InterruptedRunMatchesReference) {
  const VarianceExperimentOptions options = small_variance_options();
  const auto init = make_initializer("xavier-normal");
  const std::vector<double> fractions = {0.0, 0.5, 1.0};

  const PositionalVarianceResult reference =
      positional_variance(options, *init, fractions);

  const std::string path = temp_path("resume_positional.ckpt");
  const std::string fingerprint =
      positional_fingerprint(options, *init, fractions);
  {
    Checkpoint ckpt(path, fingerprint);
    CancellationToken token;
    RunControl control;
    control.cancel = &token;
    control.checkpoint = &ckpt;
    control.progress = [&token](const RunProgress& p) {
      if (p.completed == 1) token.request_cancel();
    };
    EXPECT_THROW(
        (void)positional_variance(options, *init, fractions, control),
        Cancelled);
  }
  EXPECT_EQ(Checkpoint::load(path, fingerprint).cell_count(), 1u);

  Checkpoint resumed = Checkpoint::open(path, fingerprint, /*resume=*/true);
  RunControl control;
  control.checkpoint = &resumed;
  const PositionalVarianceResult result =
      positional_variance(options, *init, fractions, control);

  EXPECT_EQ(result.fractions, reference.fractions);
  EXPECT_EQ(result.qubit_counts, reference.qubit_counts);
  ASSERT_EQ(result.variances.size(), reference.variances.size());
  for (std::size_t f = 0; f < reference.variances.size(); ++f) {
    EXPECT_EQ(result.variances[f], reference.variances[f]);  // exact
  }
}

TEST(ResumePositionalVariance, StaleCheckpointRefused) {
  const auto init = make_initializer("random");
  Checkpoint stale("", "positional/v1;different");
  RunControl control;
  control.checkpoint = &stale;
  EXPECT_THROW((void)positional_variance(small_variance_options(), *init,
                                         {0.0, 1.0}, control),
               CheckpointError);
}

TEST(RestoreOnly, EveryRunnerRefusesWithoutACheckpoint) {
  // A restore-only run assembles stored cells; with no store it has nothing
  // to assemble from and must say so rather than report every cell as
  // cancelled.
  const auto init = make_initializer("random");
  RunControl control;
  control.restore_only = true;
  EXPECT_THROW((void)VarianceExperiment(small_variance_options())
                   .run({init.get()}, control),
               InvalidArgument);
  EXPECT_THROW((void)positional_variance(small_variance_options(), *init,
                                         {0.0, 1.0}, control),
               InvalidArgument);
  TrainingSweepOptions sweep;
  sweep.base.qubits = 3;
  sweep.base.layers = 2;
  sweep.base.iterations = 2;
  sweep.repetitions = 2;
  EXPECT_THROW((void)TrainingExperiment(sweep.base).run({init.get()}, control),
               InvalidArgument);
  EXPECT_THROW((void)run_training_sweep({init.get()}, sweep, control),
               InvalidArgument);
}

// --- parallel execution ------------------------------------------------------

TEST(ParallelVariance, JobCountNeverChangesTheBytes) {
  const VarianceExperimentOptions options = small_variance_options();
  const VarianceExperiment experiment(options);
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const std::vector<const Initializer*> inits = {random.get(), xavier.get()};
  const std::string fingerprint = options_fingerprint(options);

  // The strongest form of the determinism contract: the rendered JSON and
  // the checkpoint byte stream are identical at any job count.
  std::string reference_json;
  std::string reference_ckpt;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    Checkpoint ckpt("", fingerprint);  // in-memory store
    RunControl control;
    control.jobs = jobs;
    control.checkpoint = &ckpt;
    const VarianceResult result = experiment.run(inits, control);
    EXPECT_TRUE(result.failures.empty());
    const std::string json = to_json(result).dump();
    const std::string bytes = ckpt.serialize();
    if (reference_json.empty()) {
      reference_json = json;
      reference_ckpt = bytes;
    } else {
      EXPECT_EQ(json, reference_json) << "jobs=" << jobs;
      EXPECT_EQ(bytes, reference_ckpt) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelVariance, FailureBudgetKeepsTheRunAliveAndReportsTheCell) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2};
  options.circuits_per_point = 6;
  options.layers = 2;
  options.gradient_engine = "nan-at:3:parameter-shift";
  const auto init = make_initializer("random");

  RunControl control;
  control.max_cell_failures = 1;
  const VarianceResult result =
      VarianceExperiment(options).run({init.get()}, control);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].cell, "q=2/init=random");
  EXPECT_EQ(result.failures[0].error, CellErrorClass::kNonFinite);
  EXPECT_EQ(result.failures[0].attempts, 1u);
  EXPECT_TRUE(std::isnan(result.series[0].points[0].variance));

  // The failure is self-describing in the result JSON.
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"non-finite\""), std::string::npos);
  EXPECT_NE(json.find("\"cell\":\"q=2/init=random\""), std::string::npos);
  // And in the human-readable summary.
  const std::string summary = failure_summary(result.failures);
  EXPECT_NE(summary.find("cell q=2/init=random: non-finite after 1"),
            std::string::npos);
}

TEST(ParallelVariance, RetryRecoversTheCellBitForBit) {
  VarianceExperimentOptions faulty;
  faulty.qubit_counts = {2};
  faulty.circuits_per_point = 6;
  faulty.layers = 2;
  faulty.gradient_engine = "nan-at:3:parameter-shift";
  VarianceExperimentOptions clean = faulty;
  clean.gradient_engine = "parameter-shift";
  const auto init = make_initializer("random");

  const VarianceResult reference = VarianceExperiment(clean).run({init.get()});

  // Attempt 0 hits the poisoned sample; the retry switches the cell to the
  // plain parameter-shift fallback, whose samples match the clean engine's
  // exactly (cells re-draw from their own RNG child streams).
  RunControl control;
  control.max_cell_attempts = 2;
  const VarianceResult result =
      VarianceExperiment(faulty).run({init.get()}, control);
  EXPECT_TRUE(result.failures.empty());
  expect_same_variance(reference, result);
}

// --- structures shared across a qubit count's cells --------------------------

/// Installs a plan-attach hook for its lifetime and counts its calls (one
/// per freshly compiled plan). `on_attach`, when set, runs after counting
/// and may throw, as a failing plan verification does.
class AttachHookGuard {
 public:
  explicit AttachHookGuard(
      std::function<void(const Circuit&)> on_attach = nullptr)
      : on_attach_(std::move(on_attach)),
        previous_(exec::set_plan_attach_hook(
            [this](const Circuit& circuit, const exec::CompiledCircuit&) {
              ++calls_;
              if (on_attach_) on_attach_(circuit);
            })) {}
  ~AttachHookGuard() { exec::set_plan_attach_hook(std::move(previous_)); }
  AttachHookGuard(const AttachHookGuard&) = delete;
  AttachHookGuard& operator=(const AttachHookGuard&) = delete;

  [[nodiscard]] std::size_t calls() const { return calls_.load(); }

 private:
  std::function<void(const Circuit&)> on_attach_;
  std::atomic<std::size_t> calls_{0};
  exec::PlanAttachHook previous_;
};

std::vector<std::string> paper_names() {
  std::vector<std::string> names;
  for (const auto& init : paper_initializers()) names.push_back(init->name());
  return names;
}

TEST(SharedStructures, OnePlanPerCircuitPerQubitCountAtAnyJobCount) {
  const VarianceExperimentOptions options = small_variance_options();
  const VarianceExperiment experiment(options);
  const std::size_t rows = options.qubit_counts.size();
  const VarianceResult reference = experiment.run_paper_set();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RunControl control;
    control.jobs = jobs;
    const AttachHookGuard hook;
    const VarianceResult result =
        experiment.run_paper_set(FanMode::kLayerTensor, control);
    // Six initializers, but each circuit is compiled once per qubit count.
    EXPECT_EQ(hook.calls(), rows * options.circuits_per_point)
        << "jobs=" << jobs;
    expect_same_variance(reference, result);
  }
}

TEST(SharedStructures, CircuitsPastTheRowFootprintCapAreBuiltPerCell) {
  // A deep circuit takes ~100 KB with its plan, so a row shares only the
  // first few; the rest are built (and compiled) by every cell, with the
  // same bits either way.
  VarianceExperimentOptions options = small_variance_options();
  options.qubit_counts = {2};
  options.layers = 350;
  options.keep_samples = true;
  const VarianceExperiment experiment(options);
  const std::size_t n = options.circuits_per_point;
  const std::size_t cells = paper_names().size();
  const AttachHookGuard hook;
  const VarianceResult result = experiment.run_paper_set();
  EXPECT_GT(hook.calls(), n);
  EXPECT_LT(hook.calls(), cells * n);
  const auto inits = paper_initializers();
  const ParameterShiftEngine engine;
  for (std::size_t t = 0; t < cells; ++t) {
    EXPECT_EQ(result.series[t].points[0].samples,
              compute_variance_cell(options, 0, *inits[t], t, engine));
  }
}

TEST(SharedStructures, RestoringHalfARowRecomputesTheRestBitForBit) {
  const VarianceExperimentOptions options = small_variance_options();
  const VarianceExperiment experiment(options);
  const std::string fingerprint = options_fingerprint(options);
  Checkpoint full("", fingerprint);
  RunControl recording;
  recording.checkpoint = &full;
  const VarianceResult reference =
      experiment.run_paper_set(FanMode::kLayerTensor, recording);

  // q=2 fully restored (no row is built for it); q=3 has three of its six
  // cells restored and the other three recomputed on a shared row.
  const std::vector<std::string> names = paper_names();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Checkpoint partial("", fingerprint);
    for (std::size_t t = 0; t < names.size(); ++t) {
      for (const std::string q : {"2", "3"}) {
        if (q == "3" && t % 2 == 1) continue;
        const std::string key = "q=" + q + "/init=" + names[t];
        partial.record_cell(key, *full.find_cell(key));
      }
    }
    RunControl control;
    control.jobs = jobs;
    control.checkpoint = &partial;
    std::size_t restored = 0;
    control.progress = [&restored](const RunProgress& p) {
      if (p.from_checkpoint) ++restored;
    };
    const AttachHookGuard hook;
    const VarianceResult result =
        experiment.run_paper_set(FanMode::kLayerTensor, control);
    EXPECT_EQ(restored, 9u);
    EXPECT_EQ(hook.calls(), options.circuits_per_point) << "jobs=" << jobs;
    expect_same_variance(reference, result);
    EXPECT_EQ(partial.serialize(), full.serialize()) << "jobs=" << jobs;
  }
}

TEST(SharedStructures, NanRetriesReuseTheSharedRowAndMatchTheCleanRun) {
  VarianceExperimentOptions faulty = small_variance_options();
  faulty.gradient_engine = "nan-at:3:parameter-shift";
  VarianceExperimentOptions clean = faulty;
  clean.gradient_engine = "parameter-shift";
  const VarianceResult reference = VarianceExperiment(clean).run_paper_set();

  // Every cell's first attempt fails at its fourth circuit; the retries
  // run concurrently on the rows the first attempts built.
  RunControl control;
  control.jobs = 4;
  control.max_cell_attempts = 2;
  const AttachHookGuard hook;
  const VarianceResult result =
      VarianceExperiment(faulty).run_paper_set(FanMode::kLayerTensor, control);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(hook.calls(),
            faulty.qubit_counts.size() * faulty.circuits_per_point);
  expect_same_variance(reference, result);
}

TEST(SharedStructures, ThrowingAttachHookFailsEveryCellOfTheRowOnEveryAttempt) {
  // A throwing hook (a failed plan verification) must never leave an
  // unverified shared circuit behind: every attempt of every q=3 cell
  // rebuilds circuit 0 and fails on it, exactly as when each cell built
  // its own circuits. NumericalError makes the failure retryable.
  const VarianceExperimentOptions options = small_variance_options();
  const VarianceExperiment experiment(options);
  const VarianceResult reference = experiment.run_paper_set();
  const std::size_t cells = paper_names().size();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<std::size_t> rejected{0};
    const AttachHookGuard hook([&rejected](const Circuit& circuit) {
      if (circuit.num_qubits() == 3) {
        ++rejected;
        throw NumericalError("plan rejected");
      }
    });
    RunControl control;
    control.jobs = jobs;
    control.max_cell_attempts = 2;
    control.max_cell_failures = 2 * cells;
    const VarianceResult result =
        experiment.run_paper_set(FanMode::kLayerTensor, control);
    ASSERT_EQ(result.failures.size(), cells) << "jobs=" << jobs;
    for (const CellFailure& failure : result.failures) {
      EXPECT_TRUE(failure.cell.starts_with("q=3/")) << failure.cell;
      EXPECT_EQ(failure.error, CellErrorClass::kNonFinite);
      EXPECT_EQ(failure.attempts, 2u);
    }
    EXPECT_EQ(rejected.load(), 2 * cells) << "jobs=" << jobs;
    for (std::size_t t = 0; t < cells; ++t) {
      EXPECT_EQ(result.series[t].points[0].variance,
                reference.series[t].points[0].variance);
      EXPECT_TRUE(std::isnan(result.series[t].points[1].variance));
    }
  }
}

TEST(ParallelTraining, WatchdogDeadlineIsReportedAsTimeout) {
  TrainingExperimentOptions options;
  options.qubits = 6;
  options.layers = 3;
  options.iterations = 200;
  options.gradient_engine = "parameter-shift";  // deliberately slow
  const auto init = make_initializer("xavier-normal");

  RunControl control;
  control.cell_timeout_seconds = 0.0;  // fires on the watchdog's first sweep
  control.max_cell_failures = 1;
  const TrainingResult result =
      TrainingExperiment(options).run({init.get()}, control);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].cell, "init=xavier-normal");
  EXPECT_EQ(result.failures[0].error, CellErrorClass::kTimeout);
  EXPECT_NE(result.failures[0].message.find("soft deadline"),
            std::string::npos);
  EXPECT_TRUE(std::isnan(result.series[0].result.final_loss));
}

TEST(ParallelSweep, JobsMatchSerialExactly) {
  TrainingSweepOptions sweep;
  sweep.base.qubits = 3;
  sweep.base.layers = 2;
  sweep.base.iterations = 4;
  sweep.repetitions = 2;
  const auto a = make_initializer("random");
  const auto b = make_initializer("xavier-normal");
  const std::vector<const Initializer*> inits = {a.get(), b.get()};

  const TrainingSweepResult serial = run_training_sweep(inits, sweep);
  RunControl control;
  control.jobs = 8;
  const TrainingSweepResult parallel =
      run_training_sweep(inits, sweep, control);

  EXPECT_TRUE(parallel.failures.empty());
  ASSERT_EQ(parallel.series.size(), serial.series.size());
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    EXPECT_EQ(parallel.series[s].initializer, serial.series[s].initializer);
    EXPECT_EQ(parallel.series[s].final_losses,
              serial.series[s].final_losses);  // exact, not NEAR
    EXPECT_EQ(parallel.series[s].final_loss_summary.mean,
              serial.series[s].final_loss_summary.mean);
  }
}

TEST(ParallelPositionalVariance, JobsMatchSerialExactly) {
  const VarianceExperimentOptions options = small_variance_options();
  const auto init = make_initializer("xavier-normal");
  const std::vector<double> fractions = {0.0, 0.5, 1.0};

  const PositionalVarianceResult serial =
      positional_variance(options, *init, fractions);
  RunControl control;
  control.jobs = 8;
  const PositionalVarianceResult parallel =
      positional_variance(options, *init, fractions, control);

  ASSERT_EQ(parallel.variances.size(), serial.variances.size());
  for (std::size_t f = 0; f < serial.variances.size(); ++f) {
    EXPECT_EQ(parallel.variances[f], serial.variances[f]);
  }
}

TEST(Fingerprints, DifferOnResultShapingOptionsOnly) {
  VarianceExperimentOptions a = small_variance_options();
  VarianceExperimentOptions b = a;
  b.seed = 43;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  b = a;
  b.layers = 3;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  // keep_samples does not shape the statistics: same fingerprint, so a
  // checkpoint can be resumed with sample retention toggled.
  b = a;
  b.keep_samples = !a.keep_samples;
  EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));

  TrainingExperimentOptions t;
  TrainingExperimentOptions u = t;
  u.learning_rate = 0.05;
  EXPECT_NE(options_fingerprint(t), options_fingerprint(u));
  // The deadline changes when a run stops, not what its cells contain.
  u = t;
  u.deadline_seconds = 123.0;
  EXPECT_EQ(options_fingerprint(t), options_fingerprint(u));
}

}  // namespace
}  // namespace qbarren
