#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

SpsaEngine::SpsaEngine(std::uint64_t seed, double c)
    : rng_(Rng(seed)), c_(c) {
  QBARREN_REQUIRE(c > 0.0, "SpsaEngine: perturbation size must be positive");
}

std::vector<double> SpsaEngine::gradient(const Circuit& circuit,
                                         const Observable& observable,
                                         std::span<const double> params) const {
  check_args(circuit, observable, params);
  // Both evaluations below run the same plan.
  const auto plan = exec::plan_for(circuit);
  const std::size_t n = params.size();
  std::vector<double> delta(n);
  for (auto& d : delta) {
    d = rng_.bernoulli(0.5) ? 1.0 : -1.0;
  }

  std::vector<double> plus(params.begin(), params.end());
  std::vector<double> minus(params.begin(), params.end());
  for (std::size_t i = 0; i < n; ++i) {
    plus[i] += c_ * delta[i];
    minus[i] -= c_ * delta[i];
  }
  const double c_plus = observable.expectation(plan->simulate(plus));
  const double c_minus = observable.expectation(plan->simulate(minus));
  const double scale = (c_plus - c_minus) / (2.0 * c_);

  std::vector<double> grad(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = scale / delta[i];  // delta is +/-1 so this is scale * delta_i
  }
  return grad;
}

}  // namespace qbarren
