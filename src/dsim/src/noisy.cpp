#include "qbarren/dsim/noisy.hpp"

#include <cmath>

namespace qbarren {

NoiseModel make_depolarizing_model(double p1, double p2) {
  NoiseModel model;
  model.single_qubit = channels::depolarizing(p1);
  model.two_qubit = channels::depolarizing_2q(p2);
  return model;
}

DensityMatrix simulate_noisy(const Circuit& circuit,
                             std::span<const double> params,
                             const NoiseModel& noise) {
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "simulate_noisy: parameter count mismatch");
  DensityMatrix rho(circuit.num_qubits());
  const auto& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (is_two_qubit(op.kind)) {
      if (op.kind == OpKind::kCz) {
        rho.apply_cz(op.qubit0, op.qubit1);
      } else {
        // Matrix convention: op.qubit0 maps to matrix bit 0 (e.g. CNOT
        // control), matching Circuit::unitary's embedding.
        rho.apply_unitary_2q(circuit.operation_matrix(i, params), op.qubit0,
                             op.qubit1);
      }
      if (noise.two_qubit.has_value()) {
        rho.apply_channel_2q(*noise.two_qubit, op.qubit0, op.qubit1);
      } else if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
        rho.apply_channel_1q(*noise.single_qubit, op.qubit1);
      }
    } else {
      rho.apply_unitary_1q(circuit.operation_matrix(i, params), op.qubit0);
      if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
      }
    }
  }
  return rho;
}

double noisy_expectation(const Circuit& circuit,
                         std::span<const double> params,
                         const Observable& observable,
                         const NoiseModel& noise) {
  QBARREN_REQUIRE(observable.num_qubits() == circuit.num_qubits(),
                  "noisy_expectation: width mismatch");
  return simulate_noisy(circuit, params, noise).expectation(observable);
}

double noisy_parameter_shift_partial(const Circuit& circuit,
                                     std::span<const double> params,
                                     const Observable& observable,
                                     const NoiseModel& noise,
                                     std::size_t index) {
  QBARREN_REQUIRE(index < params.size(),
                  "noisy_parameter_shift_partial: index out of range");
  std::vector<double> shifted(params.begin(), params.end());
  constexpr double kShift = M_PI / 2.0;
  shifted[index] = params[index] + kShift;
  const double plus = noisy_expectation(circuit, shifted, observable, noise);
  shifted[index] = params[index] - kShift;
  const double minus = noisy_expectation(circuit, shifted, observable, noise);
  return 0.5 * (plus - minus);
}

}  // namespace qbarren
