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

}  // namespace

double second_partial(const Circuit& circuit, const Observable& observable,
                      std::span<const double> params, std::size_t index) {
  check(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "second_partial: index out of range");
  std::vector<double> work(params.begin(), params.end());
  const double center = eval(circuit, observable, work);
  work[index] = params[index] + M_PI;
  const double plus = eval(circuit, observable, work);
  work[index] = params[index] - M_PI;
  const double minus = eval(circuit, observable, work);
  return (plus - 2.0 * center + minus) / 4.0;
}

std::vector<double> hessian_diagonal(const Circuit& circuit,
                                     const Observable& observable,
                                     std::span<const double> params) {
  check(circuit, observable, params);
  std::vector<double> out(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    out[i] = second_partial(circuit, observable, params, i);
  }
  return out;
}

}  // namespace qbarren
