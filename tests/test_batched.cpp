// Tests for batched plan execution: the BatchedStateVector container, the
// process batch-limit policy, and — most importantly — exact byte-identity
// (==, not near) of every batched consumer against its serial counterpart:
// simulate/expectation, the shifted-binding evaluator, all shift-rule
// gradient engines, landscape rows, variance cells, and Rotosolve; plus
// kernel-level equivalence of every batched rotation kernel, lane by lane,
// against StateVector's interpreted apply.
#include "qbarren/exec/batched.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "qbarren/bp/landscape.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/batched_kernels.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/cost.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/opt/rotosolve.hpp"
#include "qbarren/qsim/batched_statevector.hpp"

// Internal to qbarren_exec: the table of compiled ISA variants.
#include "kernel_variant.hpp"

namespace qbarren {
namespace {

// Same 13-kind random circuit generator as test_exec.cpp: every op kind
// the builders expose, so the batched kernels all get exercised.
Circuit random_circuit(Rng& rng, std::size_t qubits, std::size_t num_ops) {
  Circuit c(qubits);
  const auto axis = [&] {
    const std::size_t a = rng.index(3);
    return a == 0 ? gates::Axis::kX : a == 1 ? gates::Axis::kY : gates::Axis::kZ;
  };
  const auto pair = [&](std::size_t& a, std::size_t& b) {
    a = rng.index(qubits);
    b = rng.index(qubits - 1);
    if (b >= a) ++b;
  };
  for (std::size_t i = 0; i < num_ops; ++i) {
    const std::size_t q = rng.index(qubits);
    std::size_t a = 0;
    std::size_t b = 0;
    switch (rng.index(13)) {
      case 0:
        c.add_rotation(axis(), q);
        break;
      case 1:
        pair(a, b);
        c.add_controlled_rotation(axis(), a, b);
        break;
      case 2:
        c.add_fixed_rotation(axis(), q, rng.uniform(-M_PI, M_PI));
        break;
      case 3:
        c.add_hadamard(q);
        break;
      case 4:
        c.add_pauli_x(q);
        break;
      case 5:
        c.add_pauli_y(q);
        break;
      case 6:
        c.add_pauli_z(q);
        break;
      case 7:
        c.add_s(q);
        break;
      case 8:
        c.add_t(q);
        break;
      case 9:
        pair(a, b);
        c.add_cz(a, b);
        break;
      case 10:
        pair(a, b);
        c.add_cnot(a, b);
        break;
      case 11:
        pair(a, b);
        c.add_swap(a, b);
        break;
      case 12:
        if (rng.bernoulli(0.5)) {
          c.add_custom_gate("u3", gates::u3(rng.uniform(0.0, M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI)),
                            q);
        } else {
          pair(a, b);
          c.add_custom_two_qubit_gate(
              "crz*swap", gates::crz(rng.uniform(-M_PI, M_PI)) * gates::swap(),
              std::min(a, b), std::max(a, b));
        }
        break;
    }
  }
  return c;
}

void expect_states_equal(const StateVector& got, const StateVector& want) {
  ASSERT_EQ(got.dimension(), want.dimension());
  for (std::size_t i = 0; i < got.dimension(); ++i) {
    EXPECT_EQ(got.amplitudes()[i].real(), want.amplitudes()[i].real()) << i;
    EXPECT_EQ(got.amplitudes()[i].imag(), want.amplitudes()[i].imag()) << i;
  }
}

void expect_vectors_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "index " << i;
  }
}

// --- BatchedStateVector ------------------------------------------------------

TEST(BatchedStateVector, StartsWithEveryLaneInZeroState) {
  BatchedStateVector batch(3, 4);
  EXPECT_EQ(batch.num_qubits(), 3u);
  EXPECT_EQ(batch.batch_size(), 4u);
  EXPECT_EQ(batch.dimension(), 8u);
  for (std::size_t b = 0; b < batch.batch_size(); ++b) {
    const StateVector lane = batch.extract_lane(b);
    EXPECT_EQ(lane.amplitudes()[0], Complex(1.0, 0.0));
    for (std::size_t i = 1; i < lane.dimension(); ++i) {
      EXPECT_EQ(lane.amplitudes()[i], Complex(0.0, 0.0));
    }
  }
}

TEST(BatchedStateVector, SetAndExtractLaneRoundTrip) {
  Rng rng(11);
  Circuit c = random_circuit(rng, 3, 12);
  const std::vector<double> params =
      rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const StateVector reference = c.simulate(params);

  BatchedStateVector batch(3, 3);
  batch.set_lane(1, reference);
  expect_states_equal(batch.extract_lane(1), reference);
  // The other lanes are untouched.
  EXPECT_EQ(batch.extract_lane(0).amplitudes()[0], Complex(1.0, 0.0));
  EXPECT_EQ(batch.extract_lane(2).amplitudes()[0], Complex(1.0, 0.0));

  batch.reset();
  EXPECT_EQ(batch.extract_lane(1).amplitudes()[0], Complex(1.0, 0.0));
}

TEST(BatchedStateVector, RejectsInvalidShapesAndLanes) {
  EXPECT_THROW(BatchedStateVector(0, 2), InvalidArgument);
  EXPECT_THROW(BatchedStateVector(2, 0), InvalidArgument);
  BatchedStateVector batch(2, 2);
  EXPECT_THROW((void)batch.lane(2), InvalidArgument);
  EXPECT_THROW((void)batch.extract_lane(5), InvalidArgument);
  EXPECT_THROW(batch.set_lane(2, StateVector(2)), InvalidArgument);
  EXPECT_THROW(batch.set_lane(0, StateVector(3)), InvalidArgument);
}

// --- batch-limit policy ------------------------------------------------------

TEST(BatchPolicy, DefaultsToOffAndScopedLimitRestores) {
  EXPECT_EQ(exec::batch_limit(), exec::kBatchOff);
  EXPECT_FALSE(exec::batching_enabled());
  {
    exec::ScopedBatchLimit limit(8);
    EXPECT_EQ(exec::batch_limit(), 8u);
    EXPECT_TRUE(exec::batching_enabled());
    {
      exec::ScopedBatchLimit inner(exec::kBatchAuto);
      EXPECT_EQ(exec::batch_limit(), exec::kBatchAuto);
      EXPECT_TRUE(exec::batching_enabled());
    }
    EXPECT_EQ(exec::batch_limit(), 8u);
  }
  EXPECT_EQ(exec::batch_limit(), exec::kBatchOff);
  EXPECT_FALSE(exec::batching_enabled());
}

TEST(BatchPolicy, ResolveBatchLanesCapsAndFloors) {
  // Explicit limit: min(limit, natural), at least 1.
  EXPECT_EQ(exec::resolve_batch_lanes(4, 100), 4u);
  EXPECT_EQ(exec::resolve_batch_lanes(4, 3), 3u);
  EXPECT_EQ(exec::resolve_batch_lanes(1, 100), 1u);
  EXPECT_EQ(exec::resolve_batch_lanes(7, 0), 1u);
  // Auto: min(kAutoBatchLanes, natural).
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 100),
            exec::kAutoBatchLanes);
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 5), 5u);
}

// --- simulate_batch / expectation_batch --------------------------------------

TEST(BatchedExecution, SimulateBatchMatchesSerialLaneByLane) {
  Rng rng(21);
  for (const std::size_t qubits : {2u, 4u, 5u}) {
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      Circuit c = random_circuit(rng, qubits, 24);
      const auto plan = exec::plan_for(c);
      ASSERT_NE(plan, nullptr);
      const std::size_t num_params = c.num_parameters();

      std::vector<double> bindings(lanes * num_params);
      for (double& v : bindings) v = rng.uniform(-M_PI, M_PI);

      const BatchedStateVector batch = plan->simulate_batch(bindings, lanes);
      for (std::size_t b = 0; b < lanes; ++b) {
        const std::vector<double> row(
            bindings.begin() + static_cast<std::ptrdiff_t>(b * num_params),
            bindings.begin() +
                static_cast<std::ptrdiff_t>((b + 1) * num_params));
        expect_states_equal(batch.extract_lane(b), c.simulate(row));
      }
    }
  }
}

TEST(BatchedExecution, ExpectationBatchMatchesSerialForEveryObservable) {
  Rng rng(22);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 30);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  const std::size_t num_params = c.num_parameters();

  const GlobalZeroObservable global(qubits);
  const LocalZeroObservable local(qubits);

  const std::size_t lanes = 5;  // deliberately not a power of two
  std::vector<double> bindings(lanes * num_params);
  for (double& v : bindings) v = rng.uniform(-M_PI, M_PI);

  const std::vector<double> got_global =
      plan->expectation_batch(global, bindings, lanes);
  const std::vector<double> got_local =
      plan->expectation_batch(local, bindings, lanes);
  ASSERT_EQ(got_global.size(), lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    const std::vector<double> row(
        bindings.begin() + static_cast<std::ptrdiff_t>(b * num_params),
        bindings.begin() + static_cast<std::ptrdiff_t>((b + 1) * num_params));
    const StateVector state = c.simulate(row);
    EXPECT_EQ(got_global[b], global.expectation(state)) << b;
    EXPECT_EQ(got_local[b], local.expectation(state)) << b;
  }
}

// --- shifted_expectations ----------------------------------------------------

TEST(ShiftedExpectations, MatchesPartialEvaluatorAtEveryChunking) {
  Rng rng(31);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 36);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  const std::size_t num_params = c.num_parameters();
  if (num_params == 0) GTEST_SKIP() << "random draw produced no parameters";
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params =
      rng.uniform_vector(num_params, -M_PI, M_PI);

  std::vector<exec::ShiftSpec> specs;
  for (std::size_t p = 0; p < num_params; ++p) {
    specs.push_back({p, M_PI / 2.0});
    specs.push_back({p, -M_PI / 2.0});
    if (p % 3 == 0) specs.push_back({p, 3.0 * M_PI / 2.0});
  }

  std::vector<double> want(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    exec::PartialEvaluator cost(plan, observable, params, specs[s].param);
    want[s] = cost(specs[s].delta);
  }

  // Every chunking — single-lane, tiny, non-power-of-two, auto, and wider
  // than the spec list — must reproduce the serial evaluator exactly.
  for (const std::size_t limit : {1u, 2u, 5u, 16u, 1000u}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(
        exec::shifted_expectations(*plan, observable, params, specs), want);
  }
  {
    exec::ScopedBatchLimit scoped(exec::kBatchAuto);
    expect_vectors_equal(
        exec::shifted_expectations(*plan, observable, params, specs), want);
  }
}

// --- gradient engines --------------------------------------------------------

TEST(BatchedGradients, ShiftRuleEnginesMatchSerialExactly) {
  Rng rng(41);
  const std::size_t qubits = 4;
  for (int round = 0; round < 3; ++round) {
    Circuit c = random_circuit(rng, qubits, 32);
    // Guarantee both shift rules fire: a plain rotation and a controlled
    // rotation (4-term rule) are always present.
    c.add_rotation(gates::Axis::kY, 1);
    c.add_controlled_rotation(gates::Axis::kZ, 0, 2);
    const std::size_t num_params = c.num_parameters();
    const GlobalZeroObservable observable(qubits);
    const std::vector<double> params =
        rng.uniform_vector(num_params, -M_PI, M_PI);

    for (const char* name : {"parameter-shift", "finite-difference"}) {
      const auto engine = make_gradient_engine(name);
      const std::vector<double> serial_grad =
          engine->gradient(c, observable, params);
      const double serial_partial =
          engine->partial(c, observable, params, num_params - 1);
      for (const std::size_t limit : {exec::kBatchAuto, 2ul, 5ul, 16ul}) {
        exec::ScopedBatchLimit scoped(limit);
        expect_vectors_equal(engine->gradient(c, observable, params),
                             serial_grad);
        EXPECT_EQ(engine->partial(c, observable, params, num_params - 1),
                  serial_partial)
            << name << " limit " << limit;
      }
    }
  }
}

TEST(BatchedGradients, SpsaMatchesSerialExactly) {
  Rng rng(42);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 28);
  c.add_rotation(gates::Axis::kX, 0);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params =
      rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

  // SPSA is stateful (its own RNG advances per call), so each comparison
  // uses a fresh engine seeded identically.
  const std::vector<double> serial =
      SpsaEngine(7, 0.1).gradient(c, observable, params);
  for (const std::size_t limit : {exec::kBatchAuto, 2ul, 16ul}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(SpsaEngine(7, 0.1).gradient(c, observable, params),
                         serial);
  }
}

TEST(BatchedGradients, MalformedCustomGateStillFallsBackToInterpreted) {
  // compile() refuses the 3x3 "gate", plan_for returns nullptr, and the
  // engines take their interpreted path — a batch limit changes nothing,
  // including the interpreted fallback's error report on execution.
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 1);
  c.add_rotation(gates::Axis::kY, 1);
  const GlobalZeroObservable observable(2);
  const std::vector<double> params{0.3, -1.1};

  const auto engine = make_gradient_engine("parameter-shift");
  {
    exec::ScopedBatchLimit scoped(8);
    EXPECT_EQ(exec::plan_for(c), nullptr);
    EXPECT_THROW((void)engine->gradient(c, observable, params),
                 InvalidArgument);
    EXPECT_THROW((void)c.simulate(params), InvalidArgument);
  }
}

// --- landscape ---------------------------------------------------------------

TEST(BatchedLandscape, ScanMatchesSerialAtNonPowerOfTwoWidth) {
  LandscapeOptions options;
  options.qubits = 3;
  options.layers = 4;
  options.grid_points = 7;  // 7 % 3 != 0: rows chunk unevenly
  options.seed = 5;
  const LandscapeResult serial = scan_landscape(options);
  for (const std::size_t limit : {3ul, exec::kBatchAuto}) {
    exec::ScopedBatchLimit scoped(limit);
    const LandscapeResult batched = scan_landscape(options);
    expect_vectors_equal(batched.values, serial.values);
    EXPECT_EQ(batched.min_value, serial.min_value);
    EXPECT_EQ(batched.max_value, serial.max_value);
    EXPECT_EQ(batched.stddev, serial.stddev);
  }
}

// --- variance ----------------------------------------------------------------

TEST(BatchedVariance, CellSamplesMatchSerialExactly) {
  VarianceExperimentOptions options;
  options.qubit_counts = {3};
  options.circuits_per_point = 6;
  options.layers = 5;
  options.seed = 42;
  const auto initializers = paper_initializers();
  ASSERT_FALSE(initializers.empty());
  const auto engine = make_gradient_engine(options.gradient_engine);

  const std::vector<double> serial = compute_variance_cell(
      options, 0, *initializers.front(), 0, *engine);
  {
    exec::ScopedBatchLimit scoped(exec::kBatchAuto);
    expect_vectors_equal(
        compute_variance_cell(options, 0, *initializers.front(), 0, *engine),
        serial);
  }
}

TEST(BatchedSweep, FinalLossesMatchSerialExactly) {
  // The CLI's `sweep --batch` path: a whole training sweep under a
  // scoped batch limit is byte-identical to the serial run.
  TrainingSweepOptions options;
  options.base.qubits = 3;
  options.base.layers = 2;
  options.base.iterations = 3;
  options.base.seed = 11;
  options.repetitions = 2;
  const auto owned = paper_initializers();
  std::vector<const Initializer*> inits;
  for (const auto& init : owned) inits.push_back(init.get());

  const TrainingSweepResult serial = run_training_sweep(inits, options);
  exec::ScopedBatchLimit scoped(4);
  const TrainingSweepResult batched = run_training_sweep(inits, options);
  ASSERT_EQ(batched.series.size(), serial.series.size());
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    expect_vectors_equal(batched.series[s].final_losses,
                         serial.series[s].final_losses);
  }
}

// --- rotosolve ---------------------------------------------------------------

TEST(BatchedRotosolve, TrainingHistoryMatchesSerialExactly) {
  auto circuit = std::make_shared<Circuit>(3);
  for (std::size_t layer = 0; layer < 3; ++layer) {
    for (std::size_t q = 0; q < 3; ++q) {
      circuit->add_rotation(gates::Axis::kX, q);
      circuit->add_rotation(gates::Axis::kY, q);
    }
    circuit->add_cz(0, 1);
    circuit->add_cz(1, 2);
  }
  const CostFunction cost = make_identity_cost(circuit);
  Rng rng(9);
  const std::vector<double> init =
      rng.uniform_vector(cost.num_parameters(), -M_PI, M_PI);

  RotosolveOptions options;
  options.max_sweeps = 3;
  const TrainResult serial = train_rotosolve(cost, init, options);
  {
    exec::ScopedBatchLimit scoped(4);
    const TrainResult batched = train_rotosolve(cost, init, options);
    expect_vectors_equal(batched.loss_history, serial.loss_history);
    expect_vectors_equal(batched.final_params, serial.final_params);
    EXPECT_EQ(batched.final_loss, serial.final_loss);
  }
}

// --- batched kernel equivalence ---------------------------------------------
//
// Every batched rotation kernel, lane by lane, against StateVector's
// interpreted apply: equal under == on every component, bit-identical on
// every nonzero one (the axis-specialised bodies may only change the sign
// of a zero). Five lanes exercise both the two-lane interleave and the
// odd tail of the uniform kernels.

void expect_lane_matches(const BatchedStateVector& batch, std::size_t b,
                         const StateVector& want, const std::string& what) {
  const StateVector got = batch.extract_lane(b);
  for (std::size_t i = 0; i < want.dimension(); ++i) {
    const Complex g = got.amplitudes()[i];
    const Complex w = want.amplitudes()[i];
    EXPECT_EQ(g, w) << what << ", lane " << b << ", amplitude " << i;
    for (const auto& [gp, wp] : {std::pair{g.real(), w.real()},
                                 std::pair{g.imag(), w.imag()}}) {
      if (wp != 0.0) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gp),
                  std::bit_cast<std::uint64_t>(wp))
            << what << ", lane " << b << ", amplitude " << i;
      }
    }
  }
}

// Lanes with exact zeros — |0...0>, after a lone RZ, after a lone RX —
// and dense random vectors with some components zeroed.
BatchedStateVector kernel_input_batch(std::size_t qubits, Rng& rng) {
  BatchedStateVector batch(qubits, 5);
  StateVector lone_rz(qubits);
  lone_rz.apply_single_qubit(gates::rz(0.8), qubits - 1);
  batch.set_lane(1, lone_rz);
  StateVector lone_rx(qubits);
  lone_rx.apply_single_qubit(gates::rx(1.1), 0);
  batch.set_lane(2, lone_rx);
  for (std::size_t b = 3; b < 5; ++b) {
    StateVector dense(qubits);
    for (Complex& a : dense.amplitudes()) {
      const double re = rng.bernoulli(0.2) ? 0.0 : rng.normal();
      const double im = rng.bernoulli(0.2) ? 0.0 : rng.normal();
      a = Complex(re, im);
    }
    batch.set_lane(b, dense);
  }
  return batch;
}

constexpr gates::Axis kAxes[] = {gates::Axis::kX, gates::Axis::kY,
                                 gates::Axis::kZ};
constexpr double kLaneAngles[] = {0.0, 0.37, -2.1, M_PI, 1.3};

TEST(BatchedKernels, RotationKernelsMatchInterpretedApplyPerLane) {
  Rng rng(81);
  for (std::size_t q = 1; q <= 6; ++q) {
    const BatchedStateVector inputs = kernel_input_batch(q, rng);
    const std::size_t lanes = inputs.batch_size();
    for (const gates::Axis axis : kAxes) {
      for (std::size_t t = 0; t < q; ++t) {
        const std::string name = "q=" + std::to_string(q) + " axis " +
                                 std::to_string(static_cast<int>(axis)) +
                                 " target " + std::to_string(t);
        std::vector<gates::Mat2> entries(lanes);
        for (std::size_t b = 0; b < lanes; ++b) {
          entries[b] = gates::rotation_entries(axis, kLaneAngles[b]);
        }
        BatchedStateVector per_lane = inputs;
        exec::batched_apply_rotation_per_lane(per_lane, lanes, axis,
                                              entries.data(), t);
        BatchedStateVector generic = inputs;
        exec::batched_apply_mat2_per_lane(generic, lanes, entries.data(), t);
        BatchedStateVector uniform = inputs;
        exec::batched_apply_rotation_mat2(
            uniform, lanes, axis, gates::rotation_entries(axis, 0.37), t);
        for (std::size_t b = 0; b < lanes; ++b) {
          StateVector want = inputs.extract_lane(b);
          StateVector want_uniform = want;
          want.apply_single_qubit(gates::rotation(axis, kLaneAngles[b]), t);
          want_uniform.apply_single_qubit(gates::rotation(axis, 0.37), t);
          expect_lane_matches(per_lane, b, want, "per-lane " + name);
          expect_lane_matches(generic, b, want, "generic " + name);
          expect_lane_matches(uniform, b, want_uniform, "uniform " + name);
        }
      }
    }
  }
}

TEST(BatchedKernels, GenericKernelsMatchInterpretedApplyPerLane) {
  // Dense entries (every component nonzero): each of the 28 flops counts.
  const ComplexMatrix u = gates::u3(0.7, 1.9, -0.4);
  Rng rng(83);
  for (std::size_t q = 1; q <= 6; ++q) {
    const BatchedStateVector inputs = kernel_input_batch(q, rng);
    const std::size_t lanes = inputs.batch_size();
    const std::vector<gates::Mat2> entries(lanes, gates::entries_of(u));
    for (std::size_t t = 0; t < q; ++t) {
      const std::string name = "q=" + std::to_string(q) + " target " +
                               std::to_string(t);
      BatchedStateVector uniform = inputs;
      exec::batched_apply_mat2(uniform, lanes, gates::entries_of(u), t);
      BatchedStateVector per_lane = inputs;
      exec::batched_apply_mat2_per_lane(per_lane, lanes, entries.data(), t);
      for (std::size_t b = 0; b < lanes; ++b) {
        StateVector want = inputs.extract_lane(b);
        want.apply_single_qubit(u, t);
        expect_lane_matches(uniform, b, want, "uniform " + name);
        expect_lane_matches(per_lane, b, want, "per-lane " + name);
      }
    }
  }
}

TEST(BatchedKernels, RotationPairMatchesTwoInterpretedAppliesPerLane) {
  Rng rng(82);
  for (std::size_t q = 1; q <= 6; ++q) {
    const BatchedStateVector inputs = kernel_input_batch(q, rng);
    const std::size_t lanes = inputs.batch_size();
    for (const gates::Axis first : kAxes) {
      for (const gates::Axis second : kAxes) {
        for (std::size_t t = 0; t < q; ++t) {
          BatchedStateVector got = inputs;
          exec::batched_apply_rotation_pair(
              got, lanes, first, gates::rotation_entries(first, 0.37), second,
              gates::rotation_entries(second, -2.1), t);
          for (std::size_t b = 0; b < lanes; ++b) {
            StateVector want = inputs.extract_lane(b);
            want.apply_single_qubit(gates::rotation(first, 0.37), t);
            want.apply_single_qubit(gates::rotation(second, -2.1), t);
            expect_lane_matches(
                got, b, want,
                "q=" + std::to_string(q) + " axes " +
                    std::to_string(static_cast<int>(first)) + "," +
                    std::to_string(static_cast<int>(second)) + " target " +
                    std::to_string(t));
          }
        }
      }
    }
  }
}

// --- run-based index enumeration, lane by lane -------------------------------
//
// Batched CZ, controlled 2x2 (uniform and per-lane) and 4x4 kernels against
// the interpreted scan-and-skip loops, per lane, for every ordered qubit
// pair: bit-identical on every component, signed zeros included.

void expect_lane_bit_identical(const BatchedStateVector& batch, std::size_t b,
                               const StateVector& want,
                               const std::string& what) {
  const StateVector got = batch.extract_lane(b);
  for (std::size_t i = 0; i < want.dimension(); ++i) {
    const Complex g = got.amplitudes()[i];
    const Complex w = want.amplitudes()[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.real()),
              std::bit_cast<std::uint64_t>(w.real()))
        << what << ", lane " << b << ", amplitude " << i << " real";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.imag()),
              std::bit_cast<std::uint64_t>(w.imag()))
        << what << ", lane " << b << ", amplitude " << i << " imag";
  }
}

// kernel_input_batch's five lanes plus two whose components are +0, -0 or
// normal at random.
BatchedStateVector signed_zero_batch(std::size_t qubits, Rng& rng) {
  const BatchedStateVector base = kernel_input_batch(qubits, rng);
  BatchedStateVector batch(qubits, base.batch_size() + 2);
  for (std::size_t b = 0; b < base.batch_size(); ++b) {
    batch.set_lane(b, base.extract_lane(b));
  }
  const auto component = [&] {
    const std::size_t pick = rng.index(3);
    return pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.normal();
  };
  for (std::size_t b = base.batch_size(); b < batch.batch_size(); ++b) {
    StateVector mixed(qubits);
    for (Complex& a : mixed.amplitudes()) {
      const double re = component();
      a = Complex(re, component());
    }
    batch.set_lane(b, mixed);
  }
  return batch;
}

TEST(BatchedKernels, TwoQubitKernelsMatchInterpretedApplyPerLane) {
  const ComplexMatrix u = gates::u3(0.7, 1.9, -0.4);
  Rng rng(84);
  ComplexMatrix dense4(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      dense4(r, c) = Complex(rng.normal(), rng.normal());
    }
  }
  for (std::size_t q = 2; q <= 6; ++q) {
    const BatchedStateVector inputs = signed_zero_batch(q, rng);
    const std::size_t lanes = inputs.batch_size();
    std::vector<gates::Mat2> entries(lanes);
    for (std::size_t b = 0; b < lanes; ++b) {
      entries[b] = gates::rotation_entries(gates::Axis::kX, 0.3 * b - 0.7);
    }
    for (std::size_t a = 0; a < q; ++a) {
      for (std::size_t t = 0; t < q; ++t) {
        if (a == t) continue;
        const std::string name = "q=" + std::to_string(q) + " pair (" +
                                 std::to_string(a) + "," + std::to_string(t) +
                                 ")";
        BatchedStateVector cz = inputs;
        exec::batched_apply_cz(cz, lanes, a, t);
        BatchedStateVector controlled = inputs;
        exec::batched_apply_controlled_mat2(controlled, lanes,
                                            gates::entries_of(u), a, t);
        BatchedStateVector per_lane = inputs;
        exec::batched_apply_controlled_per_lane(per_lane, lanes,
                                                entries.data(), a, t);
        BatchedStateVector mat4 = inputs;
        exec::batched_apply_mat4(mat4, lanes, dense4, a, t);
        for (std::size_t b = 0; b < lanes; ++b) {
          const StateVector lane = inputs.extract_lane(b);
          StateVector want_cz = lane;
          want_cz.apply_cz(a, t);
          expect_lane_bit_identical(cz, b, want_cz, "cz " + name);
          StateVector want_controlled = lane;
          want_controlled.apply_controlled(u, a, t);
          expect_lane_bit_identical(controlled, b, want_controlled,
                                    "controlled " + name);
          StateVector want_per_lane = lane;
          want_per_lane.apply_controlled(
              gates::rotation(gates::Axis::kX, 0.3 * b - 0.7), a, t);
          expect_lane_bit_identical(per_lane, b, want_per_lane,
                                    "controlled per-lane " + name);
          StateVector want_mat4 = lane;
          want_mat4.apply_two_qubit(dense4, a, t);
          expect_lane_bit_identical(mat4, b, want_mat4, "mat4 " + name);
        }
      }
    }
  }
}


// --- ISA variants, lane by lane ----------------------------------------------
//
// Every batched entry point of every compiled kernel variant the host can
// run (kernel_variant.hpp) against the baseline variant:
// std::bit_cast equality on every component of every lane, signed zeros
// included, at q = 1..11. Seven lanes exercise the uniform kernels'
// two-lane interleave and their odd tail.

/// Lane and amplitude of the first component whose bits differ, as text,
/// or "" when none does.
std::string first_bit_difference(const BatchedStateVector& got,
                                 const BatchedStateVector& want) {
  for (std::size_t b = 0; b < want.batch_size(); ++b) {
    for (std::size_t i = 0; i < want.dimension(); ++i) {
      const Complex g = got.lane_data(b)[i];
      const Complex w = want.lane_data(b)[i];
      if (std::bit_cast<std::uint64_t>(g.real()) !=
              std::bit_cast<std::uint64_t>(w.real()) ||
          std::bit_cast<std::uint64_t>(g.imag()) !=
              std::bit_cast<std::uint64_t>(w.imag())) {
        return "lane " + std::to_string(b) + ", amplitude " +
               std::to_string(i);
      }
    }
  }
  return "";
}

TEST(BatchedKernelVariants, EveryEntryPointMatchesBaselineBitForBit) {
  const exec::KernelSet& base = *exec::kernel_variants().front().kernels;
  const gates::Mat2 dense = gates::entries_of(gates::u3(0.7, 1.9, -0.4));
  const gates::Mat2 pool[] = {gates::entries_of(gates::hadamard()), dense,
                              gates::rotation_entries(gates::Axis::kY, 0.9)};
  const std::uint32_t run[] = {0, 1, 2, 1};
  Rng rng(85);
  ComplexMatrix dense4(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      dense4(r, c) = Complex(rng.normal(), rng.normal());
    }
  }
  for (std::size_t q = 1; q <= 11; ++q) {
    const BatchedStateVector inputs = signed_zero_batch(q, rng);
    const std::size_t lanes = inputs.batch_size();
    std::vector<gates::Mat2> per_lane(lanes);
    for (const exec::KernelVariant& variant : exec::kernel_variants()) {
      if (!variant.supported) continue;
      const auto check = [&](const std::string& what, auto&& apply) {
        BatchedStateVector got = inputs;
        BatchedStateVector want = inputs;
        apply(*variant.kernels, got);
        apply(base, want);
        EXPECT_EQ(first_bit_difference(got, want), "")
            << variant.isa << " " << what << " q=" << q;
      };
      for (std::size_t t = 0; t < q; ++t) {
        const std::string at = " target " + std::to_string(t);
        check("mat2" + at, [&](const exec::KernelSet& k,
                               BatchedStateVector& s) {
          k.batched_apply_mat2(s, lanes, dense, t);
        });
        for (const bool reverse : {false, true}) {
          check("mat2 run" + at, [&](const exec::KernelSet& k,
                                     BatchedStateVector& s) {
            k.batched_apply_mat2_run(s, lanes, pool, run, 4, reverse, t);
          });
        }
        for (const gates::Axis axis : kAxes) {
          const std::string name =
              " axis " + std::to_string(static_cast<int>(axis)) + at;
          for (std::size_t b = 0; b < lanes; ++b) {
            // -0.0 and 0.0 among the lanes' angles.
            per_lane[b] = gates::rotation_entries(
                axis, b == 0 ? -0.0 : kLaneAngles[(b - 1) % 5]);
          }
          check("mat2 per lane" + name, [&](const exec::KernelSet& k,
                                            BatchedStateVector& s) {
            k.batched_apply_mat2_per_lane(s, lanes, per_lane.data(), t);
          });
          check("rotation per lane" + name, [&](const exec::KernelSet& k,
                                                BatchedStateVector& s) {
            k.batched_apply_rotation_per_lane(s, lanes, axis,
                                              per_lane.data(), t);
          });
          for (const double angle : {-0.0, -2.1}) {
            check("uniform rotation" + name, [&](const exec::KernelSet& k,
                                                 BatchedStateVector& s) {
              k.batched_apply_rotation_mat2(
                  s, lanes, axis, gates::rotation_entries(axis, angle), t);
            });
            check("uniform derivative" + name,
                  [&](const exec::KernelSet& k, BatchedStateVector& s) {
                    k.batched_apply_rotation_mat2(
                        s, lanes, axis,
                        gates::rotation_derivative_entries(axis, angle), t);
                  });
          }
          for (const gates::Axis second : kAxes) {
            check("rotation pair" + name, [&](const exec::KernelSet& k,
                                              BatchedStateVector& s) {
              k.batched_apply_rotation_pair(
                  s, lanes, axis, gates::rotation_entries(axis, 0.37), second,
                  gates::rotation_entries(second, 1.3), t);
            });
          }
        }
      }
      for (std::size_t a = 0; a < q; ++a) {
        for (std::size_t t = 0; t < q; ++t) {
          if (a == t) continue;
          const std::string pair =
              " pair (" + std::to_string(a) + "," + std::to_string(t) + ")";
          for (std::size_t b = 0; b < lanes; ++b) {
            per_lane[b] =
                gates::rotation_entries(gates::Axis::kX, 0.3 * b - 0.7);
          }
          check("cz" + pair, [&](const exec::KernelSet& k,
                                 BatchedStateVector& s) {
            k.batched_apply_cz(s, lanes, a, t);
          });
          check("controlled" + pair, [&](const exec::KernelSet& k,
                                         BatchedStateVector& s) {
            k.batched_apply_controlled_mat2(s, lanes, dense, a, t);
          });
          check("controlled per lane" + pair, [&](const exec::KernelSet& k,
                                                  BatchedStateVector& s) {
            k.batched_apply_controlled_per_lane(s, lanes, per_lane.data(), a,
                                                t);
          });
          check("mat4" + pair, [&](const exec::KernelSet& k,
                                   BatchedStateVector& s) {
            k.batched_apply_mat4(s, lanes, dense4, a, t);
          });
        }
      }
    }
  }
}

}  // namespace
}  // namespace qbarren
