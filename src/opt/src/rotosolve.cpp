#include "qbarren/opt/rotosolve.hpp"

#include <cmath>

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

TrainResult train_rotosolve(const CostFunction& cost,
                            std::vector<double> initial_params,
                            const RotosolveOptions& options) {
  QBARREN_REQUIRE(initial_params.size() == cost.num_parameters(),
                  "train_rotosolve: initial parameter count mismatch");
  QBARREN_REQUIRE(options.min_improvement >= 0.0,
                  "train_rotosolve: min_improvement must be non-negative");

  TrainResult result;
  result.final_params = std::move(initial_params);

  // One lowering serves every sweep.
  static_cast<void>(exec::plan_for(cost.circuit()));

  double loss = cost.value(result.final_params);
  result.initial_loss = loss;
  result.loss_history.push_back(loss);

  constexpr double kHalfPi = M_PI / 2.0;
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    for (std::size_t i = 0; i < result.final_params.size(); ++i) {
      const double theta = result.final_params[i];
      const double at = cost.value(result.final_params);
      result.final_params[i] = theta + kHalfPi;
      const double plus = cost.value(result.final_params);
      result.final_params[i] = theta - kHalfPi;
      const double minus = cost.value(result.final_params);

      // Sinusoid through the three samples; jump to its minimum.
      const double phase =
          std::atan2(2.0 * at - plus - minus, plus - minus);
      result.final_params[i] = theta - kHalfPi - phase;
    }
    const double new_loss = cost.value(result.final_params);
    result.loss_history.push_back(new_loss);
    ++result.iterations;
    const double improvement = loss - new_loss;
    loss = new_loss;
    if (improvement < options.min_improvement) {
      break;
    }
  }
  result.final_loss = loss;
  return result;
}

}  // namespace qbarren
