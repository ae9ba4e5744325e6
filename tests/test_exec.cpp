// Tests for the compiled execution-plan layer: lowering stats, fusion,
// plan attachment/invalidation, and — most importantly — bit-identity of
// the compiled path against the op-by-op oracle (reference_interpreter.hpp)
// for simulate, all four gradient engines, and the noisy density-matrix
// simulator, on randomized circuits mixing every op kind.
#include "qbarren/exec/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/dsim/noisy.hpp"
#include "qbarren/exec/kernels.hpp"
#include "qbarren/exec/plan_testing.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"
#include "random_circuit.hpp"
#include "reference_interpreter.hpp"

// Internal to qbarren_exec: the table of compiled ISA variants.
#include "kernel_variant.hpp"

namespace qbarren {
namespace {

using test_support::random_circuit;

void expect_states_equal(const StateVector& got, const StateVector& want) {
  ASSERT_EQ(got.dimension(), want.dimension());
  for (std::size_t i = 0; i < got.dimension(); ++i) {
    EXPECT_EQ(got.amplitudes()[i].real(), want.amplitudes()[i].real()) << i;
    EXPECT_EQ(got.amplitudes()[i].imag(), want.amplitudes()[i].imag()) << i;
  }
}

TEST(CompiledCircuit, LoweringStatsAndFusion) {
  Circuit c(2);
  c.add_hadamard(0);
  c.add_pauli_x(0);  // fuses with the H: run of 2 on qubit 0
  c.add_rotation(gates::Axis::kY, 1);
  c.add_hadamard(1);
  c.add_s(1);
  c.add_t(1);  // run of 3 on qubit 1
  c.add_cz(0, 1);
  c.add_cnot(0, 1);
  c.add_swap(0, 1);

  const auto plan = exec::CompiledCircuit::compile(c);
  const auto& stats = plan->stats();
  EXPECT_EQ(stats.source_ops, 9u);
  EXPECT_EQ(stats.plan_ops, 6u);  // 2 fused runs + RY + CZ + CNOT + SWAP
  EXPECT_EQ(stats.fused_runs, 2u);
  EXPECT_EQ(stats.fused_source_ops, 5u);
  EXPECT_EQ(stats.rotation_ops, 1u);
  // 2x2 pool: H, X, S, T plus CNOT's X (interned under its own op kind);
  // 4x4 pool: SWAP.
  EXPECT_EQ(stats.cached_matrices, 6u);

  // The fused program agrees exactly with the op-by-op walk.
  Rng rng(7);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0 * M_PI);
  expect_states_equal(plan->simulate(params), reference::simulate(c, params));
}

TEST(CompiledCircuit, PlanAttachShareAndInvalidate) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_cnot(0, 1);
  EXPECT_EQ(c.execution_plan(), nullptr);

  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(c.execution_plan(), plan);
  EXPECT_EQ(exec::plan_for(c), plan);  // reuses the attached plan

  // Copies share the (immutable) plan.
  const Circuit copy = c;
  EXPECT_EQ(copy.execution_plan(), plan);

  // Mutation invalidates; the next plan_for lowers the new op list.
  c.add_hadamard(0);
  EXPECT_EQ(c.execution_plan(), nullptr);
  EXPECT_EQ(copy.execution_plan(), plan);  // the copy is untouched
  const auto replan = exec::plan_for(c);
  ASSERT_NE(replan, nullptr);
  EXPECT_NE(replan, plan);
  EXPECT_EQ(replan->stats().source_ops, 3u);
}

TEST(CompiledCircuit, SimulateMatchesInterpretedOnRandomCircuits) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Circuit c = random_circuit(rng, 4, 40);
    const auto params =
        rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
    expect_states_equal(exec::simulate(c, params),
                        reference::simulate(c, params));
  }
}

TEST(CompiledCircuit, UnitaryMatchesInterpreted) {
  Rng rng(11);
  Circuit c = random_circuit(rng, 3, 25);
  const Circuit planless = c;  // copied before a plan is attached
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

  (void)exec::plan_for(c);
  // The dense reference never reads the attached plan.
  const ComplexMatrix got = c.unitary(params);
  const ComplexMatrix want = planless.unitary(params);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t col = 0; col < got.cols(); ++col) {
      EXPECT_EQ(got(r, col), want(r, col)) << r << "," << col;
    }
  }
}

TEST(CompiledCircuit, GradientEnginesMatchInterpretedExactly) {
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;
  const AdjointEngine adj;
  const GlobalZeroObservable obs(4);

  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    Rng rng(seed);
    const Circuit c = random_circuit(rng, 4, 35);
    const auto params =
        rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

    const std::pair<const GradientEngine*, std::vector<double>> cases[] = {
        {&ps, reference::parameter_shift_gradient(c, obs, params)},
        {&fd, reference::finite_difference_gradient(c, obs, params)},
        {&adj, reference::adjoint_value_and_gradient(c, obs, params).gradient}};
    for (const auto& [engine, reference] : cases) {
      const auto compiled = engine->gradient(c, obs, params);
      ASSERT_EQ(compiled.size(), reference.size());
      for (std::size_t i = 0; i < compiled.size(); ++i) {
        EXPECT_EQ(compiled[i], reference[i])
            << engine->name() << " param " << i << " seed " << seed;
      }
    }

    // value_and_gradient carries the same bit-identity guarantee.
    const ValueAndGradient compiled_vg = adj.value_and_gradient(c, obs, params);
    const ValueAndGradient reference_vg =
        reference::adjoint_value_and_gradient(c, obs, params);
    EXPECT_EQ(compiled_vg.value, reference_vg.value);
    for (std::size_t i = 0; i < compiled_vg.gradient.size(); ++i) {
      EXPECT_EQ(compiled_vg.gradient[i], reference_vg.gradient[i]) << i;
    }
  }
}

TEST(CompiledCircuit, SpsaSameSeedMatchesInterpreted) {
  Rng rng(31);
  const Circuit c = random_circuit(rng, 4, 30);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(4);

  const SpsaEngine compiled_engine(123);
  const auto compiled = compiled_engine.gradient(c, obs, params);
  // SPSA's estimate from the same +-1 draws, both sides simulated by the
  // oracle.
  constexpr double kPerturbation = 0.01;  // SpsaEngine's default c
  Rng draws(123);
  std::vector<double> delta(params.size());
  for (double& d : delta) d = draws.bernoulli(0.5) ? 1.0 : -1.0;
  std::vector<double> plus = params;
  std::vector<double> minus = params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    plus[i] += kPerturbation * delta[i];
    minus[i] -= kPerturbation * delta[i];
  }
  const double scale =
      (obs.expectation(reference::simulate(c, plus)) -
       obs.expectation(reference::simulate(c, minus))) /
      (2.0 * kPerturbation);
  std::vector<double> reference(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    reference[i] = scale / delta[i];
  }
  ASSERT_EQ(compiled.size(), reference.size());
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    EXPECT_EQ(compiled[i], reference[i]) << i;
  }
}

TEST(CompiledCircuit, PrefixReusePartialsCrossCheck) {
  // partial() takes the prefix-reuse path; gradient() takes the shift walk.
  // Both must agree with each other and with the oracle's partial —
  // exactly, including the controlled-rotation four-term rule.
  Circuit c(3);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  c.add_cnot(1, 2);
  c.add_rotation(gates::Axis::kX, 2);
  c.add_rotation(gates::Axis::kZ, 1);

  Rng rng(5);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;

  const auto grad = ps.gradient(c, obs, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(ps.partial(c, obs, params, i), grad[i]) << i;
    EXPECT_EQ(fd.partial(c, obs, params, i),
              reference::finite_difference_partial(c, obs, params, i))
        << i;
    EXPECT_EQ(reference::parameter_shift_partial(c, obs, params, i), grad[i])
        << i;
  }
}

TEST(CompiledCircuit, OperationForParameterTableMatchesScan) {
  Rng rng(41);
  Circuit c = random_circuit(rng, 4, 50);
  const Circuit scan = c;  // no plan: linear-scan path
  ASSERT_NE(exec::plan_for(c), nullptr);

  for (std::size_t p = 0; p < c.num_parameters(); ++p) {
    const Operation& via_table = c.operation_for_parameter(p);
    const Operation& via_scan = scan.operation_for_parameter(p);
    // Same position in the op list, not merely equal fields.
    EXPECT_EQ(&via_table - c.operations().data(),
              &via_scan - scan.operations().data())
        << p;
    EXPECT_EQ(via_table.param_index, p);
  }
}

TEST(CompiledCircuit, MalformedCustomGateThrowsAndAttachesNothing) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 1);

  // Lowering fails, so plan_for throws compile()'s error and attaches
  // nothing; executing the circuit reports the same error.
  EXPECT_THROW((void)exec::plan_for(c), InvalidArgument);
  EXPECT_EQ(c.execution_plan(), nullptr);
  EXPECT_THROW((void)exec::simulate(c, std::vector<double>{0.3}),
               InvalidArgument);
  EXPECT_EQ(c.execution_plan(), nullptr);
  // So do the gradient engines, which execute through plan_for.
  const GlobalZeroObservable obs(2);
  for (const char* name : {"parameter-shift", "finite-difference", "adjoint",
                           "spsa"}) {
    EXPECT_THROW((void)make_gradient_engine(name)->gradient(
                     c, obs, std::vector<double>{0.3}),
                 InvalidArgument)
        << name;
  }
  EXPECT_EQ(c.execution_plan(), nullptr);
}

TEST(CompiledCircuit, NoisySimulatorMatchesInterpreted) {
  Rng rng(51);
  const Circuit c = random_circuit(rng, 3, 20);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const NoiseModel noise = make_depolarizing_model(0.01, 0.02);
  EXPECT_EQ(noisy_expectation(c, params, obs, noise),
            reference::noisy_expectation(c, params, obs, noise));
}

TEST(CompiledCircuit, PartialEvaluatorMatchesFullSimulation) {
  Rng rng(61);
  Circuit c = random_circuit(rng, 3, 25);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);

  for (std::size_t i = 0; i < c.num_parameters(); ++i) {
    exec::PartialEvaluator cost(plan, obs, params, i);
    // delta = 0 reproduces the unshifted cost bit-for-bit.
    EXPECT_EQ(cost(0.0), obs.expectation(plan->simulate(params))) << i;
  }
}

// --- the shared-prefix shift walk -------------------------------------------
//
// shifted_expectations must return, for every spec, exactly (==) what a
// per-spec PartialEvaluator returns, and what the oracle returns for the
// same shifted binding.

/// Per-spec PartialEvaluator values: the walk's reference.
std::vector<double> per_spec_partials(
    const std::shared_ptr<const exec::CompiledCircuit>& plan,
    const Observable& obs, const std::vector<double>& params,
    const std::vector<exec::ShiftSpec>& specs) {
  std::vector<double> out;
  for (const exec::ShiftSpec& spec : specs) {
    exec::PartialEvaluator cost(plan, obs, params, spec.param);
    out.push_back(cost(spec.delta));
  }
  return out;
}

/// Per-spec oracle values: whole-program simulation of the shifted
/// binding.
std::vector<double> per_spec_oracle(
    const Circuit& circuit, const Observable& obs,
    const std::vector<double>& params,
    const std::vector<exec::ShiftSpec>& specs) {
  std::vector<double> out;
  for (const exec::ShiftSpec& spec : specs) {
    out.push_back(reference::shifted_expectation(circuit, obs, params,
                                                 spec.param, spec.delta));
  }
  return out;
}

TEST(ShiftedExpectations, MatchesPartialEvaluatorAndInterpretedExactly) {
  for (std::uint64_t seed = 31; seed < 35; ++seed) {
    Rng rng(seed);
    Circuit c = random_circuit(rng, 4, 36);
    c.add_rotation(gates::Axis::kX, 2);  // at least one parameter
    const auto plan = exec::plan_for(c);
    const GlobalZeroObservable obs(4);
    const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

    // Specs in descending parameter order, some parameters with three
    // shifts: the walk must return them in spec order, not walk order.
    std::vector<exec::ShiftSpec> specs;
    for (std::size_t p = c.num_parameters(); p-- > 0;) {
      specs.push_back({p, M_PI / 2.0});
      specs.push_back({p, -M_PI / 2.0});
      if (p % 3 == 0) specs.push_back({p, 3.0 * M_PI / 2.0});
    }
    const std::vector<double> got =
        exec::shifted_expectations(*plan, obs, params, specs);
    EXPECT_EQ(got, per_spec_partials(plan, obs, params, specs))
        << "seed " << seed;
    EXPECT_EQ(got, per_spec_oracle(c, obs, params, specs))
        << "seed " << seed;
  }
}

TEST(ShiftedExpectations, FusedPairNeverStraddlesTheShiftedOp) {
  // HEA layers: RX then RY on each qubit, back to back, then a CZ ladder.
  // The walk runs such pairs as one pass, so a shift on either op of a
  // pair must still see the other op with its unshifted angle.
  Circuit c(3);
  for (std::size_t layer = 0; layer < 3; ++layer) {
    for (std::size_t q = 0; q < 3; ++q) {
      c.add_rotation(gates::Axis::kX, q);
      c.add_rotation(gates::Axis::kY, q);
    }
    c.add_cz(0, 1);
    c.add_cz(1, 2);
  }
  const auto plan = exec::plan_for(c);
  const LocalZeroObservable obs(3);
  Rng rng(7);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

  // Parameter 6 is layer 1's RX on qubit 0 (the first op of a pair),
  // parameter 7 its RY (the second); 0 and 17 are the stream's ends.
  for (const std::vector<std::size_t>& shifted :
       {std::vector<std::size_t>{6}, std::vector<std::size_t>{7},
        std::vector<std::size_t>{7, 6}, std::vector<std::size_t>{0, 17}}) {
    std::vector<exec::ShiftSpec> specs;
    for (const std::size_t p : shifted) {
      specs.push_back({p, M_PI / 2.0});
      specs.push_back({p, -M_PI / 2.0});
    }
    const std::vector<double> got =
        exec::shifted_expectations(*plan, obs, params, specs);
    EXPECT_EQ(got, per_spec_partials(plan, obs, params, specs));
    EXPECT_EQ(got, per_spec_oracle(c, obs, params, specs));
  }
}

TEST(ShiftedExpectations, ControlledRotationTakesAllFourShifts) {
  Circuit c(3);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 1);
  c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  c.add_controlled_rotation(gates::Axis::kX, 1, 2);
  c.add_rotation(gates::Axis::kX, 2);
  const auto plan = exec::plan_for(c);
  const GlobalZeroObservable obs(3);
  const std::vector<double> params{0.4, -1.3, 2.2, 0.9};
  std::vector<exec::ShiftSpec> specs;
  for (const std::size_t p : {1u, 2u}) {
    for (const double d : {1.0, -1.0, 3.0, -3.0}) {
      specs.push_back({p, d * M_PI / 2.0});
    }
  }
  const std::vector<double> got =
      exec::shifted_expectations(*plan, obs, params, specs);
  EXPECT_EQ(got, per_spec_partials(plan, obs, params, specs));
  EXPECT_EQ(got, per_spec_oracle(c, obs, params, specs));
}

TEST(ShiftedExpectations, SharedAndUnconsumedParametersAreRefused) {
  // The builders never share a parameter, so corrupt a copy of a plan
  // the way compile() records one consumed twice: the second rotation
  // also reads parameter 0, whose binding compile() would clear, and
  // parameter 1 is left unconsumed. Shifting either has no unique
  // consuming op, so both evaluators refuse it.
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_rotation(gates::Axis::kY, 1);
  c.add_cz(0, 1);
  c.add_rotation(gates::Axis::kZ, 0);
  const auto plan = exec::PlanMutationHook::mutable_copy(
      *exec::CompiledCircuit::compile(c));
  auto& ops = exec::PlanMutationHook::plan_ops(*plan);
  ASSERT_EQ(ops[1].param, 1u);
  ops[1].param = 0;
  auto& bindings = exec::PlanMutationHook::param_plan_op(*plan);
  bindings[0] = static_cast<std::uint32_t>(-1);
  bindings[1] = static_cast<std::uint32_t>(-1);
  ASSERT_EQ(plan->plan_op_for_parameter(0), ExecutionPlan::kNoOperation);
  ASSERT_EQ(plan->plan_op_for_parameter(1), ExecutionPlan::kNoOperation);

  const GlobalZeroObservable obs(2);
  const std::vector<double> params{0.7, -0.2, 1.9};
  const std::shared_ptr<const exec::CompiledCircuit> view = plan;
  for (const std::size_t p : {0u, 1u}) {
    const std::vector<exec::ShiftSpec> specs{{2, 0.5}, {p, M_PI / 2.0}};
    EXPECT_THROW((void)exec::shifted_expectations(*plan, obs, params, specs),
                 InvalidArgument)
        << p;
    EXPECT_THROW(exec::PartialEvaluator(view, obs, params, p), InvalidArgument)
        << p;
  }
  // The intact parameter still shifts.
  const std::vector<exec::ShiftSpec> intact{{2, 0.5}};
  EXPECT_EQ(exec::shifted_expectations(*plan, obs, params, intact),
            per_spec_partials(view, obs, params, intact));
}

TEST(ShiftedExpectations, EmptyAndInvalidSpecLists) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_rotation(gates::Axis::kY, 1);
  const auto plan = exec::plan_for(c);
  const GlobalZeroObservable obs(2);
  const std::vector<double> params{0.1, 0.2};
  EXPECT_TRUE(exec::shifted_expectations(*plan, obs, params, {}).empty());
  const std::vector<exec::ShiftSpec> out_of_range{{0, 0.5}, {2, 0.5}};
  EXPECT_THROW(
      (void)exec::shifted_expectations(*plan, obs, params, out_of_range),
      InvalidArgument);
  const std::vector<double> short_params{0.1};
  EXPECT_THROW((void)exec::shifted_expectations(*plan, obs, short_params, {}),
               InvalidArgument);
}

// --- kernel equivalence ------------------------------------------------------
//
// The axis-specialised rotation kernels (RX/RY in real arithmetic, RZ
// diagonal) and the branch-free generic 2x2 kernel against StateVector's
// plain apply loop: equal under == on every component, and bit-identical
// wherever the loop's component is nonzero (a skipped product with an
// exact-zero entry component may only change the sign of a zero).

void expect_same_amplitudes(const StateVector& got, const StateVector& want,
                            const std::string& what) {
  ASSERT_EQ(got.dimension(), want.dimension()) << what;
  for (std::size_t i = 0; i < want.dimension(); ++i) {
    const Complex g = got.amplitudes()[i];
    const Complex w = want.amplitudes()[i];
    EXPECT_EQ(g, w) << what << ", amplitude " << i;
    for (const auto& [gp, wp] : {std::pair{g.real(), w.real()},
                                 std::pair{g.imag(), w.imag()}}) {
      if (wp != 0.0) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gp),
                  std::bit_cast<std::uint64_t>(wp))
            << what << ", amplitude " << i;
      }
    }
  }
}

// Inputs with exact zeros — |0...0>, the state after a lone RZ (one
// nonzero amplitude), after a lone RX (amplitudes with one zero
// component) — and dense random vectors with some components zeroed.
std::vector<StateVector> kernel_inputs(std::size_t qubits, Rng& rng) {
  std::vector<StateVector> states(3, StateVector(qubits));
  states[1].apply_single_qubit(gates::rz(0.8), qubits - 1);
  states[2].apply_single_qubit(gates::rx(1.1), 0);
  for (int k = 0; k < 2; ++k) {
    StateVector dense(qubits);
    for (Complex& a : dense.amplitudes()) {
      const double re = rng.bernoulli(0.2) ? 0.0 : rng.normal();
      const double im = rng.bernoulli(0.2) ? 0.0 : rng.normal();
      a = Complex(re, im);
    }
    states.push_back(dense);
  }
  return states;
}

constexpr gates::Axis kAxes[] = {gates::Axis::kX, gates::Axis::kY,
                                 gates::Axis::kZ};
constexpr double kAngles[] = {0.0, 0.37, -2.1, M_PI};

std::string case_name(std::size_t qubits, std::size_t input, gates::Axis axis,
                      double angle, std::size_t target) {
  return "q=" + std::to_string(qubits) + " input " + std::to_string(input) +
         " axis " + std::to_string(static_cast<int>(axis)) + " angle " +
         std::to_string(angle) + " target " + std::to_string(target);
}

TEST(Kernels, RotationKernelsMatchInterpretedApply) {
  Rng rng(71);
  for (std::size_t q = 1; q <= 6; ++q) {
    const std::vector<StateVector> inputs = kernel_inputs(q, rng);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      for (const gates::Axis axis : kAxes) {
        for (const double angle : kAngles) {
          for (std::size_t t = 0; t < q; ++t) {
            const std::string name = case_name(q, n, axis, angle, t);
            StateVector want = inputs[n];
            want.apply_single_qubit(gates::rotation(axis, angle), t);
            StateVector specialised = inputs[n];
            exec::apply_rotation(specialised, axis, angle, t);
            expect_same_amplitudes(specialised, want, "specialised " + name);
            StateVector generic = inputs[n];
            exec::apply_mat2(generic, gates::rotation_entries(axis, angle), t);
            expect_same_amplitudes(generic, want, "generic " + name);
          }
        }
      }
    }
  }
}

TEST(Kernels, GenericKernelMatchesInterpretedApplyOnDenseMatrices) {
  // Every entry component nonzero, so each of the 28 flops counts: any
  // reassociation of the branch-free product would show here.
  const ComplexMatrix u = gates::u3(0.7, 1.9, -0.4);
  Rng rng(74);
  for (std::size_t q = 1; q <= 6; ++q) {
    const std::vector<StateVector> inputs = kernel_inputs(q, rng);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      for (std::size_t t = 0; t < q; ++t) {
        StateVector want = inputs[n];
        want.apply_single_qubit(u, t);
        StateVector got = inputs[n];
        exec::apply_mat2(got, gates::entries_of(u), t);
        expect_same_amplitudes(got, want,
                               "q=" + std::to_string(q) + " input " +
                                   std::to_string(n) + " target " +
                                   std::to_string(t));
      }
    }
  }
}

TEST(Kernels, RotationPairMatchesTwoInterpretedApplies) {
  Rng rng(72);
  for (std::size_t q = 1; q <= 6; ++q) {
    const std::vector<StateVector> inputs = kernel_inputs(q, rng);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      for (const gates::Axis first : kAxes) {
        for (const gates::Axis second : kAxes) {
          for (std::size_t t = 0; t < q; ++t) {
            StateVector want = inputs[n];
            want.apply_single_qubit(gates::rotation(first, 0.37), t);
            want.apply_single_qubit(gates::rotation(second, -2.1), t);
            StateVector got = inputs[n];
            exec::apply_rotation_pair(
                got, first, gates::rotation_entries(first, 0.37), second,
                gates::rotation_entries(second, -2.1), t);
            expect_same_amplitudes(got, want,
                                   case_name(q, n, first, 0.37, t) +
                                       " then axis " +
                                       std::to_string(static_cast<int>(second)));
          }
        }
      }
    }
  }
}

TEST(Kernels, AdjointRotationSweepMatchesSeparatePasses) {
  Rng rng(73);
  for (std::size_t q = 1; q <= 6; ++q) {
    const std::vector<StateVector> inputs = kernel_inputs(q, rng);
    const StateVector& lambda_in = inputs.back();
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      for (const gates::Axis axis : kAxes) {
        for (const double angle : kAngles) {
          for (std::size_t t = 0; t < q; ++t) {
            const std::string name = case_name(q, n, axis, angle, t);
            // Interpreted: inverse on phi, <lambda| dR |phi>, inverse on
            // lambda — three separate passes.
            StateVector want_phi = inputs[n];
            want_phi.apply_single_qubit(gates::rotation(axis, -angle), t);
            StateVector d = want_phi;
            d.apply_single_qubit(gates::rotation_derivative(axis, angle), t);
            const Complex want_acc = lambda_in.inner_product(d);
            StateVector want_lambda = lambda_in;
            want_lambda.apply_single_qubit(gates::rotation(axis, -angle), t);

            StateVector phi = inputs[n];
            StateVector lambda = lambda_in;
            const Complex acc = exec::adjoint_rotation_sweep(
                phi, lambda, axis, gates::rotation_entries(axis, -angle),
                gates::rotation_derivative_entries(axis, angle), t);
            expect_same_amplitudes(phi, want_phi, "phi " + name);
            expect_same_amplitudes(lambda, want_lambda, "lambda " + name);
            EXPECT_EQ(acc, want_acc) << name;
          }
        }
      }
    }
  }
}

// --- bit identity on every component -----------------------------------------
//
// The kernels below must match their reference on every amplitude
// component under std::bit_cast, signed zeros included. Their inputs add
// states whose components are +0, -0 or normal at random to the
// exact-zero inputs above.

void expect_bit_identical(const StateVector& got, const StateVector& want,
                          const std::string& what) {
  ASSERT_EQ(got.dimension(), want.dimension()) << what;
  for (std::size_t i = 0; i < want.dimension(); ++i) {
    const Complex g = got.amplitudes()[i];
    const Complex w = want.amplitudes()[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.real()),
              std::bit_cast<std::uint64_t>(w.real()))
        << what << ", amplitude " << i << " real";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.imag()),
              std::bit_cast<std::uint64_t>(w.imag()))
        << what << ", amplitude " << i << " imag";
  }
}

std::vector<StateVector> signed_zero_inputs(std::size_t qubits, Rng& rng) {
  std::vector<StateVector> states = kernel_inputs(qubits, rng);
  for (int k = 0; k < 2; ++k) {
    StateVector mixed(qubits);
    const auto component = [&] {
      const std::size_t pick = rng.index(3);
      return pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.normal();
    };
    for (Complex& a : mixed.amplitudes()) {
      const double re = component();
      a = Complex(re, component());
    }
    states.push_back(mixed);
  }
  return states;
}

// --- run-based index enumeration ---------------------------------------------
//
// CZ, the controlled 2x2 and the 4-group kernels enumerate the indices
// whose two qubit bits match a pattern as contiguous runs, where the
// StateVector loops and the oracle scan every index and skip. Every ordered pair,
// adjacent or not, with a > b as well as a < b.

TEST(Kernels, TwoQubitKernelsMatchInterpretedApplyOnEveryOrderedPair) {
  const ComplexMatrix u = gates::u3(0.7, 1.9, -0.4);
  Rng rng(75);
  ComplexMatrix dense4(4, 4);
  std::array<Complex, 16> m4;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      dense4(r, c) = Complex(rng.normal(), rng.normal());
      m4[4 * r + c] = dense4(r, c);
    }
  }
  for (std::size_t q = 2; q <= 6; ++q) {
    const std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      const StateVector& other = inputs[(n + 1) % inputs.size()];
      for (std::size_t a = 0; a < q; ++a) {
        for (std::size_t b = 0; b < q; ++b) {
          if (a == b) continue;
          const std::string name = "q=" + std::to_string(q) + " input " +
                                   std::to_string(n) + " pair (" +
                                   std::to_string(a) + "," +
                                   std::to_string(b) + ")";
          StateVector want_cz = inputs[n];
          reference::apply_cz(want_cz, a, b);
          StateVector cz = inputs[n];
          exec::apply_cz(cz, a, b);
          expect_bit_identical(cz, want_cz, "cz " + name);

          StateVector want_other = other;
          reference::apply_cz(want_other, a, b);
          StateVector first = inputs[n];
          StateVector second = other;
          exec::apply_cz_pair(first, second, a, b);
          expect_bit_identical(first, want_cz, "cz pair first " + name);
          expect_bit_identical(second, want_other, "cz pair second " + name);

          StateVector want_controlled = inputs[n];
          reference::apply_controlled(want_controlled, u, a, b);
          StateVector controlled = inputs[n];
          exec::apply_controlled_mat2(controlled, gates::entries_of(u), a, b);
          expect_bit_identical(controlled, want_controlled,
                               "controlled " + name);

          StateVector want_mat4 = inputs[n];
          want_mat4.apply_two_qubit(dense4, a, b);
          StateVector mat4(q);
          exec::apply_mat4_from(mat4, inputs[n], m4, a, b);
          expect_bit_identical(mat4, want_mat4, "mat4 " + name);
          // dst == src: the plan's fixed 4x4 ops and the density matrix
          // run the kernel in place.
          StateVector in_place = inputs[n];
          exec::apply_mat4_from(in_place, in_place, m4, a, b);
          expect_bit_identical(in_place, want_mat4, "mat4 in place " + name);
        }
      }
    }
  }
}

// --- sign-folded RX / RZ bodies ----------------------------------------------
//
// RX and RZ compute each subtracted term as a product with a precomputed
// negated entry, d*x + (-o)*y. The subtract-form bodies below, d*x - o*y,
// are the oracle: IEEE defines x - y as x + (-y) and (-o)*y is exactly
// -(o*y), so the folded kernels must match them bit for bit on every
// component, signed zeros included.
//
// The oracles compute every real part in one pass and every imaginary
// part in another. Computed side by side, a subtracted real part and an
// added imaginary part are the lane pair GCC 12's vectoriser fuses into
// FMADDSUB once FMA is enabled (e.g. -march=native), -ffp-contract=off
// notwithstanding; the fused oracle would round once where the kernels
// round twice.

void oracle_rx(StateVector& state, const gates::Mat2& u, std::size_t target) {
  const double d0 = u.m00.real();
  const double o01 = u.m01.imag();
  const double o10 = u.m10.imag();
  const double d1 = u.m11.real();
  auto& amps = state.amplitudes();
  const std::size_t bit = std::size_t{1} << target;
  std::vector<double> re(amps.size());
  for (std::size_t i0 = 0; i0 < amps.size(); ++i0) {
    if ((i0 & bit) != 0) continue;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i0 | bit];
    re[i0] = d0 * a0.real() - o01 * a1.imag();
    re[i0 | bit] = d1 * a1.real() - o10 * a0.imag();
  }
  for (std::size_t i0 = 0; i0 < amps.size(); ++i0) {
    if ((i0 & bit) != 0) continue;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i0 | bit];
    amps[i0] = Complex(re[i0], d0 * a0.imag() + o01 * a1.real());
    amps[i0 | bit] = Complex(re[i0 | bit], d1 * a1.imag() + o10 * a0.real());
  }
}

void oracle_rz(StateVector& state, const gates::Mat2& u, std::size_t target) {
  auto& amps = state.amplitudes();
  const std::size_t bit = std::size_t{1} << target;
  const auto phase = [&](std::size_t i) {
    return (i & bit) == 0 ? u.m00 : u.m11;
  };
  std::vector<double> re(amps.size());
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const Complex p = phase(i);
    re[i] = p.real() * amps[i].real() - p.imag() * amps[i].imag();
  }
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const Complex p = phase(i);
    amps[i] = Complex(re[i], p.real() * amps[i].imag() +
                                 p.imag() * amps[i].real());
  }
}

void oracle_apply(StateVector& state, gates::Axis axis, const gates::Mat2& u,
                  std::size_t target) {
  if (axis == gates::Axis::kX) {
    oracle_rx(state, u, target);
  } else {
    oracle_rz(state, u, target);
  }
}

TEST(Kernels, FoldedRotationBodiesMatchSubtractFormOracle) {
  // -0.0 makes an off-diagonal entry component +0 (RX: -sin(-0/2)), the
  // one case where folding by 0.0 - o instead of -o would flip a zero.
  constexpr double kFoldAngles[] = {0.0, -0.0, 0.37, -2.1, M_PI};
  constexpr gates::Axis kFolded[] = {gates::Axis::kX, gates::Axis::kZ};
  Rng rng(76);
  for (std::size_t q = 1; q <= 6; ++q) {
    const std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    for (const gates::Axis axis : kFolded) {
      for (const double angle : kFoldAngles) {
        for (const bool derivative : {false, true}) {
          const gates::Mat2 u =
              derivative ? gates::rotation_derivative_entries(axis, angle)
                         : gates::rotation_entries(axis, angle);
          for (std::size_t t = 0; t < q; ++t) {
            const std::string name =
                "q=" + std::to_string(q) + " axis " +
                std::to_string(static_cast<int>(axis)) + " angle " +
                std::to_string(angle) + " target " + std::to_string(t) +
                (derivative ? " derivative" : " rotation");
            for (std::size_t n = 0; n < inputs.size(); ++n) {
              StateVector want = inputs[n];
              oracle_apply(want, axis, u, t);
              StateVector got = inputs[n];
              exec::apply_rotation_mat2(got, axis, u, t);
              expect_bit_identical(got, want,
                                   "serial input " + std::to_string(n) +
                                       " " + name);

              // The adjoint sweep applies the body to phi and lambda.
              StateVector phi = inputs[n];
              StateVector lambda = inputs[(n + 1) % inputs.size()];
              StateVector want_lambda = lambda;
              oracle_apply(want_lambda, axis, u, t);
              (void)exec::adjoint_rotation_sweep(phi, lambda, axis, u, u, t);
              expect_bit_identical(phi, want,
                                   "sweep phi input " + std::to_string(n) +
                                       " " + name);
              expect_bit_identical(lambda, want_lambda,
                                   "sweep lambda input " +
                                       std::to_string(n) + " " + name);

              // Fused same-qubit pairs: RX then RZ, RZ then RX.
              const gates::Axis other = axis == gates::Axis::kX
                                            ? gates::Axis::kZ
                                            : gates::Axis::kX;
              const gates::Mat2 v = gates::rotation_entries(other, 1.3);
              StateVector want_pair = want;
              oracle_apply(want_pair, other, v, t);
              StateVector pair = inputs[n];
              exec::apply_rotation_pair(pair, axis, u, other, v, t);
              expect_bit_identical(pair, want_pair,
                                   "pair input " + std::to_string(n) + " " +
                                       name);
            }
          }
        }
      }
    }
  }
}


/// Index of the first amplitude whose components differ in any bit, or
/// the dimension when none does.
std::size_t first_bit_difference(const StateVector& got,
                                 const StateVector& want) {
  for (std::size_t i = 0; i < want.dimension(); ++i) {
    const Complex g = got.amplitudes()[i];
    const Complex w = want.amplitudes()[i];
    if (std::bit_cast<std::uint64_t>(g.real()) !=
            std::bit_cast<std::uint64_t>(w.real()) ||
        std::bit_cast<std::uint64_t>(g.imag()) !=
            std::bit_cast<std::uint64_t>(w.imag())) {
      return i;
    }
  }
  return want.dimension();
}

// --- CZ ladders -------------------------------------------------------------
//
// A run of >= 2 consecutive CZs on distinct neighbour pairs lowers to one
// kCzLadder op; every other CZ stays a kCzGate.

std::vector<exec::CompiledCircuit::Kernel> kernels_of(const Circuit& circuit) {
  const auto plan = exec::CompiledCircuit::compile(circuit);
  std::vector<exec::CompiledCircuit::Kernel> out;
  for (const auto& op : plan->plan_ops()) out.push_back(op.kernel);
  return out;
}

TEST(CzLadders, PaperAnsaetzeLowerToOneLadderPerLayer) {
  using Kernel = exec::CompiledCircuit::Kernel;
  for (const std::size_t q : {3u, 7u, 10u}) {
    const std::uint64_t full = (std::uint64_t{1} << (q - 1)) - 1;
    const auto expect_ladders = [&](const Circuit& c, std::size_t layers,
                                    const std::string& what) {
      const auto plan = exec::CompiledCircuit::compile(c);
      EXPECT_EQ(plan->stats().cz_ladders, layers) << what;
      EXPECT_EQ(plan->stats().cz_ladder_source_ops, layers * (q - 1)) << what;
      EXPECT_EQ(plan->stats().plan_ops,
                plan->stats().source_ops - layers * (q - 2))
          << what;
      for (const auto& op : plan->plan_ops()) {
        EXPECT_NE(op.kernel, Kernel::kCzGate) << what;
        if (op.kernel != Kernel::kCzLadder) continue;
        EXPECT_EQ(op.fused_count, q - 1) << what;
        EXPECT_EQ(plan->matrix_pool().cz_ladders[op.matrix].mask, full)
            << what;
      }
      // One distinct mask, so one pool entry.
      EXPECT_EQ(plan->matrix_pool().cz_ladders.size(), 1u) << what;
    };
    Rng rng(q);
    VarianceAnsatzOptions variance;
    variance.layers = 6;
    expect_ladders(variance_ansatz(q, rng, variance), 6,
                   "variance q=" + std::to_string(q));
    TrainingAnsatzOptions training;
    training.layers = 5;
    expect_ladders(training_ansatz(q, training), 5,
                   "training q=" + std::to_string(q));
    // Two blocks of 2 forward + 2 mirrored layers: the forward half's last
    // ladder and the mirrored half's first repeat every pair, so they stay
    // two ladders.
    expect_ladders(mirror_block_ansatz(q, 2, 2, rng).circuit, 8,
                   "mirror q=" + std::to_string(q));
  }
}

TEST(CzLadders, OtherCzRunsStayCzGates) {
  using Kernel = exec::CompiledCircuit::Kernel;
  const auto all_cz_gates = [](const Circuit& c) {
    const auto kernels = kernels_of(c);
    return std::all_of(kernels.begin(), kernels.end(), [](Kernel k) {
      return k == Kernel::kCzGate || k == Kernel::kFixedSingle;
    });
  };
  Circuit single(3);
  single.add_cz(1, 2);
  EXPECT_TRUE(all_cz_gates(single));

  Circuit repeated(3);  // (0,1) twice: not distinct pairs
  repeated.add_cz(0, 1);
  repeated.add_cz(1, 0);
  EXPECT_TRUE(all_cz_gates(repeated));

  Circuit interleaved(3);  // a constant gate between the CZs
  interleaved.add_cz(0, 1);
  interleaved.add_hadamard(2);
  interleaved.add_cz(1, 2);
  EXPECT_TRUE(all_cz_gates(interleaved));

  Circuit distant(5);  // non-neighbour pairs
  distant.add_cz(0, 2);
  distant.add_cz(2, 4);
  EXPECT_TRUE(all_cz_gates(distant));

  Circuit wide(66);  // pairs from (63, 64) on do not fit a 64-bit mask
  wide.add_cz(62, 63);
  wide.add_cz(63, 64);
  wide.add_cz(64, 65);
  EXPECT_TRUE(all_cz_gates(wide));

  Circuit all_to_all(4);
  add_entangling_layer(all_to_all, EntanglerGate::kCz,
                       EntanglerTopology::kAllToAll);
  EXPECT_TRUE(all_cz_gates(all_to_all));

  // A ring's linear part is a ladder; its closing (n-1, 0) pair is not a
  // neighbour pair and stays a CZ gate.
  Circuit ring(5);
  add_entangling_layer(ring, EntanglerGate::kCz, EntanglerTopology::kRing);
  EXPECT_EQ(kernels_of(ring),
            (std::vector<Kernel>{Kernel::kCzLadder, Kernel::kCzGate}));

  // A repeated pair ends a ladder and may start the next; either qubit
  // order names the same pair.
  Circuit runs(4);
  runs.add_cz(1, 0);
  runs.add_cz(2, 1);
  runs.add_cz(0, 1);
  runs.add_cz(2, 3);
  runs.add_cz(2, 3);
  const auto plan = exec::CompiledCircuit::compile(runs);
  ASSERT_EQ(plan->num_plan_ops(), 3u);
  EXPECT_EQ(plan->plan_ops()[0].kernel, Kernel::kCzLadder);
  EXPECT_EQ(plan->plan_ops()[0].fused_count, 2u);
  EXPECT_EQ(plan->plan_ops()[1].kernel, Kernel::kCzLadder);
  EXPECT_EQ(plan->plan_ops()[1].source_index, 2u);
  EXPECT_EQ(plan->plan_ops()[2].kernel, Kernel::kCzGate);
  const auto pool = plan->matrix_pool().cz_ladders;
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[plan->plan_ops()[0].matrix].mask, 0b011u);
  EXPECT_EQ(pool[plan->plan_ops()[1].matrix].mask, 0b101u);
}

/// Circuits whose plans hold ladders across the 64-amplitude block and the
/// bit-6 boundary, plus the rest of the kernel families.
std::vector<Circuit> ladder_circuits() {
  std::vector<Circuit> out;
  for (const std::size_t q : {2u, 5u, 7u, 8u}) {
    Rng rng(90 + q);
    VarianceAnsatzOptions variance;
    variance.layers = 4;
    out.push_back(variance_ansatz(q, rng, variance));
    TrainingAnsatzOptions training;
    training.layers = 3;
    out.push_back(training_ansatz(q, training));
    out.push_back(mirror_block_ansatz(q, 2, 1, rng).circuit);
    Circuit mixed = random_circuit(rng, q, 20);
    add_entangling_layer(mixed, EntanglerGate::kCz, EntanglerTopology::kRing);
    mixed.add_cz(q - 1, q - 2);
    mixed.add_rotation(gates::Axis::kX, 0);
    out.push_back(mixed);
  }
  return out;
}

TEST(CzLadders, EveryConsumerMatchesTheInterpretedPath) {
  // The oracle's contract (see the kernel tests above): equal under ==,
  // bit-identical on every nonzero component.
  const AdjointEngine adjoint;
  const ParameterShiftEngine shift;
  std::size_t ladders = 0;
  for (const Circuit& c : ladder_circuits()) {
    const std::size_t q = c.num_qubits();
    const LocalZeroObservable obs(q);
    Rng rng(q + c.num_operations());
    const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
    const std::vector<std::size_t> partials = {0, c.num_parameters() / 2,
                                               c.num_parameters() - 1};
    std::vector<double> got_partials;
    std::vector<double> want_partials;
    for (const std::size_t p : partials) {
      got_partials.push_back(shift.partial(c, obs, params, p));
      want_partials.push_back(
          reference::parameter_shift_partial(c, obs, params, p));
    }

    ladders += exec::plan_for(c)->stats().cz_ladders;
    const std::string what = "q=" + std::to_string(q) + " ops " +
                             std::to_string(c.num_operations());
    expect_same_amplitudes(exec::simulate(c, params),
                           reference::simulate(c, params), "simulate " + what);
    // Adjoint: the forward pass and the inverse double sweep both run the
    // ladders. Partials: PartialEvaluator's prefix and suffix cross them.
    // The parameter-shift gradient's shift walk advances its base across
    // them and runs them in every suffix.
    const ValueAndGradient got_vg = adjoint.value_and_gradient(c, obs, params);
    const ValueAndGradient want_vg =
        reference::adjoint_value_and_gradient(c, obs, params);
    EXPECT_EQ(got_vg.value, want_vg.value) << "adjoint value " << what;
    EXPECT_EQ(got_vg.gradient, want_vg.gradient) << "adjoint " << what;
    EXPECT_EQ(got_partials, want_partials) << "partials " << what;
    EXPECT_EQ(shift.gradient(c, obs, params),
              reference::parameter_shift_gradient(c, obs, params))
        << "shift walk " << what;
  }
  EXPECT_GT(ladders, 0u);  // the fixtures must exercise the ladder kernel
}

TEST(CzLadders, NoisySimulatorMatchesInterpreted) {
  const NoiseModel noise = make_depolarizing_model(0.01, 0.02);
  for (const Circuit& c : ladder_circuits()) {
    if (c.num_qubits() > 5) continue;  // density matrices grow as 4^q
    const GlobalZeroObservable obs(c.num_qubits());
    Rng rng(c.num_operations());
    const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  noisy_expectation(c, params, obs, noise)),
              std::bit_cast<std::uint64_t>(
                  reference::noisy_expectation(c, params, obs, noise)));
  }
}

// --- ISA variants ------------------------------------------------------------
//
// Every compiled kernel variant the host can run (kernel_variant.hpp)
// against the baseline variant, entry point by entry point, and the
// adjoint sweep against its scalar loop: std::bit_cast equality on every
// component, signed zeros included. q runs to 11, so every target sees whole AVX-512 vectors of
// amplitudes plus a remainder.

constexpr std::size_t kMaxVariantQubits = 11;

bool same_bits(Complex a, Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

const exec::KernelSet& baseline_kernels() {
  return *exec::kernel_variants().front().kernels;
}

/// Applies `apply(kernels, state)` to a copy of `input` through `variant`
/// and through the baseline, and requires the same bits.
template <class Apply>
void expect_variant_matches_baseline(const exec::KernelVariant& variant,
                                     const StateVector& input,
                                     const std::string& what, Apply&& apply) {
  StateVector got = input;
  StateVector want = input;
  apply(*variant.kernels, got);
  apply(baseline_kernels(), want);
  EXPECT_EQ(first_bit_difference(got, want), want.dimension())
      << variant.isa << " " << what;
}

TEST(KernelVariants, SelectedVariantIsTheWidestTheCpuSupports) {
  const auto variants = exec::kernel_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_TRUE(variants.front().supported);
  const exec::KernelVariant* widest = nullptr;
  for (const exec::KernelVariant& v : variants) {
    const std::string_view isa = v.isa;
    EXPECT_TRUE(isa == "x86-64" || isa == "x86-64-v3" ||
                isa == "x86-64-v4" || isa == "generic")
        << isa;
    if (v.supported) widest = &v;
  }
  EXPECT_STREQ(exec::kernel_isa(), widest->isa);
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && \
    defined(__x86_64__)
  __builtin_cpu_init();
  const bool v3 = __builtin_cpu_supports("x86-64-v3");
  const bool v4 = __builtin_cpu_supports("x86-64-v4");
  for (const exec::KernelVariant& v : variants.subspan(1)) {
    const std::string_view isa = v.isa;
    if (isa == "x86-64-v3") {
      EXPECT_EQ(v.supported, v3);
    }
    if (isa == "x86-64-v4") {
      EXPECT_EQ(v.supported, v4);
    }
  }
  const std::string_view selected = exec::kernel_isa();
  if (selected == "x86-64-v3") {
    EXPECT_TRUE(v3);
  }
  if (selected == "x86-64-v4") {
    EXPECT_TRUE(v4);
  }
#endif
}

constexpr double kVariantAngles[] = {0.0, -0.0, 0.37, -2.1, M_PI};

TEST(KernelVariants, SingleQubitKernelsMatchBaselineBitForBit) {
  const gates::Mat2 dense = gates::entries_of(gates::u3(0.7, 1.9, -0.4));
  const gates::Mat2 pool[] = {gates::entries_of(gates::hadamard()), dense,
                              gates::rotation_entries(gates::Axis::kY, 0.9)};
  const std::uint32_t run[] = {0, 1, 2, 1};
  Rng rng(77);
  for (std::size_t q = 1; q <= kMaxVariantQubits; ++q) {
    const std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    for (const exec::KernelVariant& variant : exec::kernel_variants()) {
      if (!variant.supported) continue;
      for (std::size_t n = 0; n < inputs.size(); ++n) {
        for (std::size_t t = 0; t < q; ++t) {
          const std::string at = "q=" + std::to_string(q) + " input " +
                                 std::to_string(n) + " target " +
                                 std::to_string(t);
          const auto check = [&](const std::string& what, auto&& apply) {
            expect_variant_matches_baseline(variant, inputs[n],
                                            what + " " + at, apply);
          };
          check("mat2", [&](const exec::KernelSet& k, StateVector& s) {
            k.apply_mat2(s, dense, t);
          });
          check("mat2 from", [&](const exec::KernelSet& k, StateVector& s) {
            k.apply_mat2_from(s, inputs[n], dense, t);
          });
          for (const bool reverse : {false, true}) {
            check("mat2 run", [&](const exec::KernelSet& k, StateVector& s) {
              k.apply_mat2_run(s, pool, run, 4, reverse, t);
            });
          }
          for (const gates::Axis axis : kAxes) {
            for (const double angle : kVariantAngles) {
              const std::string name = "axis " +
                                       std::to_string(static_cast<int>(axis)) +
                                       " angle " + std::to_string(angle);
              const gates::Mat2 r = gates::rotation_entries(axis, angle);
              const gates::Mat2 dr =
                  gates::rotation_derivative_entries(axis, angle);
              check("rotation " + name,
                    [&](const exec::KernelSet& k, StateVector& s) {
                      k.apply_rotation(s, axis, angle, t);
                    });
              check("rotation entries " + name,
                    [&](const exec::KernelSet& k, StateVector& s) {
                      k.apply_rotation_mat2(s, axis, r, t);
                    });
              check("derivative entries " + name,
                    [&](const exec::KernelSet& k, StateVector& s) {
                      k.apply_rotation_mat2(s, axis, dr, t);
                    });
              for (const gates::Axis second : kAxes) {
                check("rotation pair " + name + " then axis " +
                          std::to_string(static_cast<int>(second)),
                      [&](const exec::KernelSet& k, StateVector& s) {
                        k.apply_rotation_pair(
                            s, axis, r, second,
                            gates::rotation_entries(second, 1.3), t);
                      });
              }
            }
          }
        }
      }
    }
  }
}

// The adjoint sweep's scalar loop, kept as the reference for its vector
// loops in every variant: per block of 2*bit indices, the bit-clear
// terms, then the bit-set terms, each added to one accumulator in
// ascending index order. The pair arithmetic is the axis bodies'
// (kernel_bodies.hpp), written out per component with every subtraction
// sign-folded, as there; with no add/subtract lane pair, GCC cannot fuse
// this reference into FMADDSUB under -march=native either.

void oracle_axis_body(gates::Axis axis, const gates::Mat2& u, Complex& a0,
                      Complex& a1) {
  const double r0 = a0.real();
  const double i0 = a0.imag();
  const double r1 = a1.real();
  const double i1 = a1.imag();
  switch (axis) {
    case gates::Axis::kX: {
      const double d0 = u.m00.real();
      const double o01 = u.m01.imag();
      const double o10 = u.m10.imag();
      const double d1 = u.m11.real();
      a0 = Complex(d0 * r0 + (-o01) * i1, d0 * i0 + o01 * r1);
      a1 = Complex(d1 * r1 + (-o10) * i0, d1 * i1 + o10 * r0);
      return;
    }
    case gates::Axis::kY: {
      const double d0 = u.m00.real();
      const double o01 = u.m01.real();
      const double o10 = u.m10.real();
      const double d1 = u.m11.real();
      a0 = Complex(d0 * r0 + o01 * r1, d0 * i0 + o01 * i1);
      a1 = Complex(o10 * r0 + d1 * r1, o10 * i0 + d1 * i1);
      return;
    }
    case gates::Axis::kZ: {
      const Complex p0 = u.m00;
      const Complex p1 = u.m11;
      a0 = Complex(p0.real() * r0 + (-p0.imag()) * i0,
                   p0.real() * i0 + p0.imag() * r0);
      a1 = Complex(p1.real() * r1 + (-p1.imag()) * i1,
                   p1.real() * i1 + p1.imag() * r1);
      return;
    }
  }
}

Complex oracle_adjoint_sweep(StateVector& phi, StateVector& lambda,
                             gates::Axis axis, const gates::Mat2& inv,
                             const gates::Mat2& dr, std::size_t target) {
  auto& p = phi.amplitudes();
  auto& l = lambda.amplitudes();
  const std::size_t bit = std::size_t{1} << target;
  double acc_re = 0.0;
  double acc_im = 0.0;
  // acc += conj(lv) * a, as (lv.re a.re + lv.im a.im, lv.re a.im +
  // (-lv.im) a.re).
  const auto accumulate = [&](Complex lv, Complex a) {
    acc_re += lv.real() * a.real() + lv.imag() * a.imag();
    acc_im += lv.real() * a.imag() + (-lv.imag()) * a.real();
  };
  for (std::size_t base = 0; base < p.size(); base += 2 * bit) {
    for (std::size_t i0 = base; i0 < base + bit; ++i0) {
      Complex a0 = p[i0];
      Complex a1 = p[i0 + bit];
      oracle_axis_body(axis, inv, a0, a1);
      p[i0] = a0;
      p[i0 + bit] = a1;
      oracle_axis_body(axis, dr, a0, a1);
      accumulate(l[i0], a0);
    }
    for (std::size_t i0 = base; i0 < base + bit; ++i0) {
      Complex a0 = p[i0];
      Complex a1 = p[i0 + bit];
      oracle_axis_body(axis, dr, a0, a1);
      accumulate(l[i0 + bit], a1);
      Complex b0 = l[i0];
      Complex b1 = l[i0 + bit];
      oracle_axis_body(axis, inv, b0, b1);
      l[i0] = b0;
      l[i0 + bit] = b1;
    }
  }
  return Complex(acc_re, acc_im);
}

TEST(KernelVariants, AdjointSweepMatchesScalarOracleBitForBit) {
  Rng rng(79);
  for (std::size_t q = 1; q <= kMaxVariantQubits; ++q) {
    const std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      const StateVector& lambda_in = inputs[(n + 1) % inputs.size()];
      for (const gates::Axis axis : kAxes) {
        for (const double angle : kVariantAngles) {
          const gates::Mat2 inv = gates::rotation_entries(axis, -angle);
          const gates::Mat2 dr =
              gates::rotation_derivative_entries(axis, angle);
          for (std::size_t t = 0; t < q; ++t) {
            const std::string name =
                "q=" + std::to_string(q) + " input " + std::to_string(n) +
                " axis " + std::to_string(static_cast<int>(axis)) +
                " angle " + std::to_string(angle) + " target " +
                std::to_string(t);
            StateVector want_phi = inputs[n];
            StateVector want_lambda = lambda_in;
            const Complex want_acc = oracle_adjoint_sweep(
                want_phi, want_lambda, axis, inv, dr, t);
            for (const exec::KernelVariant& variant :
                 exec::kernel_variants()) {
              if (!variant.supported) continue;
              StateVector phi = inputs[n];
              StateVector lambda = lambda_in;
              const Complex acc = variant.kernels->adjoint_rotation_sweep(
                  phi, lambda, axis, inv, dr, t);
              EXPECT_EQ(first_bit_difference(phi, want_phi),
                        want_phi.dimension())
                  << variant.isa << " phi " << name;
              EXPECT_EQ(first_bit_difference(lambda, want_lambda),
                        want_lambda.dimension())
                  << variant.isa << " lambda " << name;
              EXPECT_TRUE(same_bits(acc, want_acc))
                  << variant.isa << " value " << name;
            }
          }
        }
      }
    }
  }
}

TEST(KernelVariants, TwoQubitKernelsMatchBaselineOnEveryOrderedPair) {
  const gates::Mat2 dense = gates::entries_of(gates::u3(0.7, 1.9, -0.4));
  Rng rng(78);
  std::array<Complex, 16> m4;
  for (Complex& e : m4) e = Complex(rng.normal(), rng.normal());
  for (std::size_t q = 2; q <= kMaxVariantQubits; ++q) {
    const std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    for (const exec::KernelVariant& variant : exec::kernel_variants()) {
      if (!variant.supported) continue;
      for (std::size_t n = 0; n < inputs.size(); ++n) {
        const StateVector& other = inputs[(n + 1) % inputs.size()];
        for (std::size_t a = 0; a < q; ++a) {
          for (std::size_t b = 0; b < q; ++b) {
            if (a == b) continue;
            const std::string at = "q=" + std::to_string(q) + " input " +
                                   std::to_string(n) + " pair (" +
                                   std::to_string(a) + "," +
                                   std::to_string(b) + ")";
            const auto check = [&](const std::string& what, auto&& apply) {
              expect_variant_matches_baseline(variant, inputs[n],
                                              what + " " + at, apply);
            };
            check("cz", [&](const exec::KernelSet& k, StateVector& s) {
              k.apply_cz(s, a, b);
            });
            StateVector first = inputs[n];
            StateVector second = other;
            variant.kernels->apply_cz_pair(first, second, a, b);
            StateVector want_first = inputs[n];
            StateVector want_second = other;
            baseline_kernels().apply_cz_pair(want_first, want_second, a, b);
            EXPECT_EQ(first_bit_difference(first, want_first),
                      want_first.dimension())
                << variant.isa << " cz pair first " << at;
            EXPECT_EQ(first_bit_difference(second, want_second),
                      want_second.dimension())
                << variant.isa << " cz pair second " << at;
            check("controlled", [&](const exec::KernelSet& k, StateVector& s) {
              k.apply_controlled_mat2(s, dense, a, b);
            });
            for (const gates::Axis axis : kAxes) {
              check("controlled rotation axis " +
                        std::to_string(static_cast<int>(axis)),
                    [&](const exec::KernelSet& k, StateVector& s) {
                      k.apply_controlled_rotation(s, axis, -2.1, a, b);
                    });
            }
            check("mat4", [&](const exec::KernelSet& k, StateVector& s) {
              k.apply_mat4_from(s, inputs[n], m4, a, b);
            });
            check("mat4 in place",
                  [&](const exec::KernelSet& k, StateVector& s) {
                    k.apply_mat4_from(s, s, m4, a, b);
                  });
          }
        }
      }
    }
  }
}

// Every variant's CZ ladder against the baseline's CZs one by one, for
// full, partial, top-pairs-only and random masks: q <= 6 is the
// single-block (<= 64 amplitudes) path, q = 7 the first with a bit-6
// half, and q = 12 puts pairs in the per-block parity.
TEST(KernelVariants, CzLadderMatchesSequentialCzBitForBit) {
  Rng rng(79);
  for (std::size_t q = 1; q <= 12; ++q) {
    const std::uint64_t full = (std::uint64_t{1} << (q - 1)) - 1;
    std::vector<std::uint64_t> masks = {full, full & 0x55, full & ~0x3Full,
                                        full & 0x60, full & (full << 4)};
    if (q >= 3) masks.push_back(std::uint64_t{3} << (q - 3));  // top pairs
    for (int r = 0; r < 6; ++r) masks.push_back(rng.index(full + 1));
    std::vector<StateVector> inputs = signed_zero_inputs(q, rng);
    StateVector nan_input = inputs.back();
    nan_input.amplitudes()[0] = Complex(std::nan(""), -0.0);
    inputs.push_back(nan_input);
    for (const std::uint64_t mask : masks) {
      std::uint64_t signs[exec::kCzLadderSignWords];
      for (std::size_t w = 0; w < exec::kCzLadderSignWords; ++w) {
        signs[w] = exec::cz_ladder_sign_word(mask, w);
      }
      for (std::size_t n = 0; n < inputs.size(); ++n) {
        StateVector want = inputs[n];
        for (std::size_t k = 0; k + 1 < q; ++k) {
          if ((mask >> k) & 1u) baseline_kernels().apply_cz(want, k, k + 1);
        }
        for (const exec::KernelVariant& variant : exec::kernel_variants()) {
          if (!variant.supported) continue;
          StateVector got = inputs[n];
          variant.kernels->apply_cz_ladder(got, mask, signs);
          EXPECT_EQ(first_bit_difference(got, want), want.dimension())
              << variant.isa << " q=" << q << " mask " << mask << " input "
              << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qbarren
