// Tests for the gradient engines: analytic ground truth on small circuits
// and TEST_P cross-checks (parameter-shift == adjoint == finite-difference)
// on random circuits and observables.
#include "qbarren/grad/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

Circuit one_qubit_ry() {
  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  return c;
}

TEST(ParameterShift, AnalyticGradientOfIdentityCost) {
  // C(theta) = sin^2(theta/2) => dC/dtheta = sin(theta)/2.
  const Circuit c = one_qubit_ry();
  const GlobalZeroObservable obs(1);
  const ParameterShiftEngine engine;
  for (double theta : {0.0, 0.3, M_PI / 2.0, M_PI, -1.2, 5.0}) {
    const auto grad = engine.gradient(c, obs, std::vector<double>{theta});
    ASSERT_EQ(grad.size(), 1u);
    EXPECT_NEAR(grad[0], std::sin(theta) / 2.0, 1e-11) << theta;
  }
}

TEST(ParameterShift, GradientOfZExpectation) {
  // <Z> after RY(theta) is cos(theta); derivative -sin(theta).
  const Circuit c = one_qubit_ry();
  const PauliStringObservable obs("Z");
  const ParameterShiftEngine engine;
  const double theta = 0.7;
  const auto grad = engine.gradient(c, obs, std::vector<double>{theta});
  EXPECT_NEAR(grad[0], -std::sin(theta), 1e-11);
}

TEST(ParameterShift, PartialMatchesGradientEntry) {
  Rng rng(1);
  VarianceAnsatzOptions options;
  options.layers = 4;
  const Circuit c = variance_ansatz(3, rng, options);
  const GlobalZeroObservable obs(3);
  const ParameterShiftEngine engine;
  Rng prng(2);
  const auto params =
      prng.uniform_vector(c.num_parameters(), 0.0, 2.0 * M_PI);
  const auto grad = engine.gradient(c, obs, params);
  for (std::size_t i = 0; i < params.size(); i += 3) {
    EXPECT_NEAR(engine.partial(c, obs, params, i), grad[i], 1e-12);
  }
}

TEST(Engines, ArgumentValidation) {
  const Circuit c = one_qubit_ry();
  const GlobalZeroObservable obs1(1);
  const GlobalZeroObservable obs2(2);
  const ParameterShiftEngine engine;
  const std::vector<double> ok{0.1};
  const std::vector<double> wrong{0.1, 0.2};
  EXPECT_THROW((void)engine.gradient(c, obs2, ok), InvalidArgument);
  EXPECT_THROW((void)engine.gradient(c, obs1, wrong), InvalidArgument);
  EXPECT_THROW((void)engine.partial(c, obs1, ok, 1), InvalidArgument);
}

TEST(FiniteDifference, StepMustBePositive) {
  EXPECT_THROW(FiniteDifferenceEngine(0.0), InvalidArgument);
  EXPECT_THROW(FiniteDifferenceEngine(-1e-6), InvalidArgument);
}

TEST(Adjoint, ValueAndGradientValueMatchesForward) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  const GlobalZeroObservable obs(3);
  const AdjointEngine engine;
  Rng rng(3);
  const auto params = rng.uniform_vector(c.num_parameters(), -1.0, 1.0);

  const ValueAndGradient vg = engine.value_and_gradient(c, obs, params);
  EXPECT_NEAR(vg.value, obs.expectation(exec::simulate(c, params)), 1e-12);
  EXPECT_EQ(vg.gradient.size(), c.num_parameters());
}

TEST(Adjoint, HandlesNonRotationGatesInCircuit) {
  Circuit c(2);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 1);
  c.add_cnot(0, 1);
  c.add_t(0);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_cz(0, 1);
  const GlobalZeroObservable obs(2);
  const AdjointEngine adjoint;
  const ParameterShiftEngine shift;
  const std::vector<double> params{0.4, -0.9};
  const auto ga = adjoint.gradient(c, obs, params);
  const auto gs = shift.gradient(c, obs, params);
  ASSERT_EQ(ga.size(), gs.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_NEAR(ga[i], gs[i], 1e-10);
  }
}

TEST(Adjoint, AccumulatesNothingForParameterFreeCircuit) {
  Circuit c(1);
  c.add_hadamard(0);
  const GlobalZeroObservable obs(1);
  const AdjointEngine engine;
  const auto grad = engine.gradient(c, obs, {});
  EXPECT_TRUE(grad.empty());
}

TEST(Spsa, DeterministicPerInstanceSeed) {
  const Circuit c = one_qubit_ry();
  const GlobalZeroObservable obs(1);
  const std::vector<double> params{0.6};
  const SpsaEngine a(42);
  const SpsaEngine b(42);
  EXPECT_EQ(a.gradient(c, obs, params), b.gradient(c, obs, params));
}

TEST(Spsa, AveragesTowardTrueGradient) {
  // SPSA is an unbiased (to O(c^2)) estimator: for a single parameter it is
  // exactly the symmetric difference quotient.
  const Circuit c = one_qubit_ry();
  const GlobalZeroObservable obs(1);
  const double theta = 0.8;
  const SpsaEngine engine(7, 1e-4);
  double acc = 0.0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    acc += engine.gradient(c, obs, std::vector<double>{theta})[0];
  }
  EXPECT_NEAR(acc / trials, std::sin(theta) / 2.0, 1e-6);
}

TEST(Spsa, ValidatesPerturbation) {
  EXPECT_THROW(SpsaEngine(1, 0.0), InvalidArgument);
}

TEST(Factory, KnownEnginesConstruct) {
  for (const char* name :
       {"parameter-shift", "finite-difference", "adjoint", "spsa"}) {
    const auto engine = make_gradient_engine(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_THROW((void)make_gradient_engine("backprop"), NotFound);
}

// --- the shared-prefix shift walk --------------------------------------------
//
// With a plan, ParameterShiftEngine::gradient and FiniteDifferenceEngine::
// gradient evaluate every shifted binding in one walk of the op stream.
// Each entry must equal (==) the engine's own per-parameter partial (a
// PartialEvaluator per parameter) and the op-by-op oracle's gradient.

/// Eq 3's training ansatz (same-qubit RX/RY pairs and CZ ladders) with a
/// controlled rotation appended so the four-term rule fires too.
Circuit walk_circuit(std::size_t qubits, std::size_t layers) {
  TrainingAnsatzOptions options;
  options.layers = layers;
  Circuit c = training_ansatz(qubits, options);
  c.add_controlled_rotation(gates::Axis::kY, 0, qubits - 1);
  c.add_rotation(gates::Axis::kZ, 1);
  return c;
}

TEST(ShiftWalkGradients, MatchPerParameterPartialsAndInterpretedExactly) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {2, 1}, {4, 3}, {5, 2}};
  for (const auto& [qubits, layers] : shapes) {
    const Circuit c = walk_circuit(qubits, layers);
    const LocalZeroObservable obs(qubits);
    Rng rng(qubits * 10 + layers);
    const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
    const std::pair<const char*, std::vector<double>> cases[] = {
        {"parameter-shift",
         reference::parameter_shift_gradient(c, obs, params)},
        {"finite-difference",
         reference::finite_difference_gradient(c, obs, params)}};
    for (const auto& [name, oracle] : cases) {
      const auto engine = make_gradient_engine(name);
      const std::vector<double> walk = engine->gradient(c, obs, params);
      std::vector<double> partials;
      for (std::size_t i = 0; i < params.size(); ++i) {
        partials.push_back(engine->partial(c, obs, params, i));
      }
      EXPECT_EQ(walk, partials) << name << " q=" << qubits;
      EXPECT_EQ(walk, oracle) << name << " q=" << qubits;
    }
  }
}

TEST(ShiftWalkGradients, MalformedCustomGateThrowsInvalidArgument) {
  // compile() refuses the 3x3 "gate", so plan_for throws its error and
  // the engines, full gradients and single partials alike, pass it on.
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 1);
  c.add_rotation(gates::Axis::kY, 1);
  const GlobalZeroObservable obs(2);
  const std::vector<double> params{0.3, -1.1};
  EXPECT_THROW((void)exec::plan_for(c), InvalidArgument);
  for (const char* name : {"parameter-shift", "finite-difference"}) {
    const auto engine = make_gradient_engine(name);
    EXPECT_THROW((void)engine->gradient(c, obs, params), InvalidArgument)
        << name;
    EXPECT_THROW((void)engine->partial(c, obs, params, 1), InvalidArgument)
        << name;
  }
}

// Property sweep: the three exact engines agree on random circuits across
// widths, observables, and parameter regimes.
struct AgreementCase {
  std::size_t qubits;
  std::size_t layers;
  CostKind cost;
  std::uint64_t seed;
};

class EngineAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(EngineAgreement, ExactEnginesMatch) {
  const AgreementCase& ac = GetParam();
  Rng rng(ac.seed);
  VarianceAnsatzOptions options;
  options.layers = ac.layers;
  const Circuit c = variance_ansatz(ac.qubits, rng, options);
  const auto obs = make_cost_observable(ac.cost, ac.qubits);
  const auto params =
      rng.uniform_vector(c.num_parameters(), 0.0, 2.0 * M_PI);

  const ParameterShiftEngine shift;
  const AdjointEngine adjoint;
  const FiniteDifferenceEngine fd(1e-6);

  const auto gs = shift.gradient(c, *obs, params);
  const auto ga = adjoint.gradient(c, *obs, params);
  const auto gf = fd.gradient(c, *obs, params);
  ASSERT_EQ(gs.size(), ga.size());
  ASSERT_EQ(gs.size(), gf.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], ga[i], 1e-10) << "param " << i;
    EXPECT_NEAR(gs[i], gf[i], 1e-5) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EngineAgreement,
    ::testing::Values(AgreementCase{2, 3, CostKind::kGlobalZero, 1},
                      AgreementCase{2, 3, CostKind::kLocalZero, 2},
                      AgreementCase{2, 3, CostKind::kPauliZZ, 3},
                      AgreementCase{3, 5, CostKind::kGlobalZero, 4},
                      AgreementCase{3, 5, CostKind::kPauliZZ, 5},
                      AgreementCase{4, 4, CostKind::kGlobalZero, 6},
                      AgreementCase{4, 4, CostKind::kLocalZero, 7},
                      AgreementCase{5, 2, CostKind::kGlobalZero, 8},
                      AgreementCase{6, 3, CostKind::kLocalZero, 9}));

// The gradient of the zero-initialized (identity) training circuit under
// the global cost vanishes at theta = 0 — the cost is at its minimum.
class ZeroPointGradient : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZeroPointGradient, VanishesAtIdentity) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(GetParam(), options);
  const GlobalZeroObservable obs(GetParam());
  const AdjointEngine engine;
  const std::vector<double> zeros(c.num_parameters(), 0.0);
  for (const double g : engine.gradient(c, obs, zeros)) {
    EXPECT_NEAR(g, 0.0, 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ZeroPointGradient,
                         ::testing::Values(1, 2, 3, 4, 6));

}  // namespace
}  // namespace qbarren
