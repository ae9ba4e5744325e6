#include "qbarren/grad/hessian.hpp"

#include <cmath>

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

namespace {

double eval(const Circuit& circuit, const Observable& observable,
            const std::vector<double>& params) {
  return observable.expectation(exec::simulate(circuit, params));
}

void check(const Circuit& circuit, const Observable& observable,
           std::span<const double> params) {
  QBARREN_REQUIRE(circuit.num_qubits() == observable.num_qubits(),
                  "hessian: circuit/observable width mismatch");
  QBARREN_REQUIRE(params.size() == circuit.num_parameters(),
                  "hessian: parameter count mismatch");
}

/// [C(t + pi e_index) - 2 C(t) + C(t - pi e_index)] / 4 with C(t) =
/// `center` given; `work` holds t on entry and on return.
double shifted_second(const Circuit& circuit, const Observable& observable,
                      std::vector<double>& work, std::size_t index,
                      double center) {
  const double theta = work[index];
  work[index] = theta + M_PI;
  const double plus = eval(circuit, observable, work);
  work[index] = theta - M_PI;
  const double minus = eval(circuit, observable, work);
  work[index] = theta;
  return (plus - 2.0 * center + minus) / 4.0;
}

}  // namespace

double second_partial(const Circuit& circuit, const Observable& observable,
                      std::span<const double> params, std::size_t index) {
  check(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "second_partial: index out of range");
  std::vector<double> work(params.begin(), params.end());
  return shifted_second(circuit, observable, work, index,
                        eval(circuit, observable, work));
}

std::vector<double> hessian_diagonal(const Circuit& circuit,
                                     const Observable& observable,
                                     std::span<const double> params) {
  check(circuit, observable, params);
  std::vector<double> work(params.begin(), params.end());
  // The unshifted cost is shared by every index: 2P + 1 evaluations.
  const double center = eval(circuit, observable, work);
  std::vector<double> out(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    out[i] = shifted_second(circuit, observable, work, i, center);
  }
  return out;
}

}  // namespace qbarren
