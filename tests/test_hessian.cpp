// Tests for parameter-shift second derivatives.
#include "qbarren/grad/hessian.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

TEST(Hessian, AnalyticSecondDerivativeOfOneQubitCost) {
  // C(theta) = sin^2(theta/2) => C'' = cos(theta) / 2.
  Circuit c(1);
  (void)c.add_rotation(gates::Axis::kY, 0);
  const GlobalZeroObservable obs(1);
  for (const double theta : {0.0, 0.4, M_PI / 2.0, 2.8, -1.1}) {
    const double d2 =
        second_partial(c, obs, std::vector<double>{theta}, 0);
    EXPECT_NEAR(d2, std::cos(theta) / 2.0, 1e-11) << theta;
  }
}

TEST(Hessian, MatchesFiniteDifferences) {
  TrainingAnsatzOptions options;
  options.layers = 1;
  const Circuit c = training_ansatz(2, options);
  const GlobalZeroObservable obs(2);
  Rng rng(3);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);
  const auto diag = hessian_diagonal(c, obs, params);

  const double step = 1e-4;
  auto cost_at = [&](std::vector<double> p) {
    return obs.expectation(exec::simulate(c, p));
  };
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::vector<double> p = params;
    p[i] += 2.0 * step;
    const double pp = cost_at(p);
    p[i] = params[i] - 2.0 * step;
    const double mm = cost_at(p);
    const double fd = (pp - 2.0 * cost_at(params) + mm) / (4.0 * step * step);
    EXPECT_NEAR(diag[i], fd, 1e-4) << i;
  }
}

TEST(Hessian, PositiveSemidefiniteAtGlobalMinimum) {
  // At theta = 0 the identity cost is at its global minimum: the Hessian
  // diagonal cannot be negative (each 1-D slice is minimized).
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  const GlobalZeroObservable obs(3);
  const std::vector<double> zeros(c.num_parameters(), 0.0);
  for (const double d : hessian_diagonal(c, obs, zeros)) {
    EXPECT_GE(d, -1e-11);
  }
}

TEST(Hessian, Validation) {
  Circuit c(1);
  (void)c.add_rotation(gates::Axis::kY, 0);
  const GlobalZeroObservable obs(1);
  const GlobalZeroObservable wide(2);
  const std::vector<double> params{0.1};
  EXPECT_THROW((void)second_partial(c, obs, params, 1), InvalidArgument);
  EXPECT_THROW((void)second_partial(c, wide, params, 0), InvalidArgument);
}

TEST(Hessian, CurvatureVanishesOnPlateau) {
  // The second-order signature of BP: the typical curvature magnitude
  // shrinks with width for randomly initialized deep circuits.
  const auto random = make_initializer("random");
  auto typical_curvature = [&](std::size_t qubits) {
    std::vector<double> values;
    for (std::uint64_t t = 0; t < 10; ++t) {
      Rng structure = Rng(10).child(t);
      VarianceAnsatzOptions options;
      options.layers = 20;
      const Circuit c = variance_ansatz(qubits, structure, options);
      Rng prng = Rng(20).child(t);
      const auto params = random->initialize(c, prng);
      const GlobalZeroObservable obs(qubits);
      values.push_back(std::abs(
          second_partial(c, obs, params, c.num_parameters() - 1)));
    }
    return mean(values);
  };
  EXPECT_GT(typical_curvature(2), 5.0 * typical_curvature(6));
}

}  // namespace
}  // namespace qbarren
