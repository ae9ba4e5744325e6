// Tests for CostFunction and the cost-kind factory.
#include "qbarren/exec/cost.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/circuit/ansatz.hpp"

namespace qbarren {
namespace {

constexpr double kTol = 1e-12;

std::shared_ptr<const Circuit> one_qubit_ry() {
  auto c = std::make_shared<Circuit>(1);
  c->add_rotation(gates::Axis::kY, 0);
  return c;
}

TEST(CostFunction, RejectsNullAndMismatch) {
  auto circuit = one_qubit_ry();
  auto obs2 = std::make_shared<GlobalZeroObservable>(2);
  EXPECT_THROW(CostFunction(nullptr, obs2), InvalidArgument);
  EXPECT_THROW(CostFunction(circuit, nullptr), InvalidArgument);
  EXPECT_THROW(CostFunction(circuit, obs2), InvalidArgument);
}

TEST(CostFunction, IdentityCostAnalytic) {
  // C(theta) = 1 - cos^2(theta/2) = sin^2(theta/2) for RY on |0>.
  const CostFunction cost = make_identity_cost(one_qubit_ry());
  for (double theta : {0.0, 0.5, M_PI / 2.0, M_PI, 2.2}) {
    const double expected = std::sin(theta / 2.0) * std::sin(theta / 2.0);
    EXPECT_NEAR(cost.value(std::vector<double>{theta}), expected, kTol);
  }
}

TEST(CostFunction, ZeroParametersGiveZeroIdentityCost) {
  TrainingAnsatzOptions options;
  options.layers = 3;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(4, options));
  const CostFunction cost = make_identity_cost(circuit);
  const std::vector<double> zeros(circuit->num_parameters(), 0.0);
  // All rotations at angle 0 + CZ on |0...0> leave the state at |0...0>.
  EXPECT_NEAR(cost.value(zeros), 0.0, kTol);
}

TEST(CostFunction, LocalIdentityCostZeroAtZero) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(3, options));
  const CostFunction cost = make_local_identity_cost(circuit);
  const std::vector<double> zeros(circuit->num_parameters(), 0.0);
  EXPECT_NEAR(cost.value(zeros), 0.0, kTol);
}

TEST(CostFunction, AccessorsWiredThrough) {
  auto circuit = one_qubit_ry();
  const CostFunction cost = make_identity_cost(circuit);
  EXPECT_EQ(cost.num_parameters(), 1u);
  EXPECT_EQ(&cost.circuit(), circuit.get());
  EXPECT_EQ(cost.observable().name(), "global-zero");
  EXPECT_EQ(cost.circuit_ptr(), circuit);
  EXPECT_NE(cost.observable_ptr(), nullptr);
}

TEST(CostFunction, ValueValidatesParamCount) {
  const CostFunction cost = make_identity_cost(one_qubit_ry());
  EXPECT_THROW((void)cost.value(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW((void)cost.value(std::vector<double>{1.0, 2.0}),
               InvalidArgument);
}

TEST(CostKind, FactoryProducesRightObservables) {
  EXPECT_EQ(make_cost_observable(CostKind::kGlobalZero, 3)->name(),
            "global-zero");
  EXPECT_EQ(make_cost_observable(CostKind::kLocalZero, 3)->name(),
            "local-zero");
  EXPECT_EQ(make_cost_observable(CostKind::kPauliZZ, 3)->name(), "pauli:ZZI");
  EXPECT_THROW((void)make_cost_observable(CostKind::kPauliZZ, 1),
               InvalidArgument);
}

TEST(CostKind, NamesRoundTrip) {
  for (const CostKind kind :
       {CostKind::kGlobalZero, CostKind::kLocalZero, CostKind::kPauliZZ}) {
    EXPECT_EQ(cost_kind_from_name(cost_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)cost_kind_from_name("bogus"), NotFound);
}

}  // namespace
}  // namespace qbarren
