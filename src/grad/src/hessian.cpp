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

double mixed_partial(const Circuit& circuit, const Observable& observable,
                     std::span<const double> params, std::size_t i,
                     std::size_t j) {
  check(circuit, observable, params);
  QBARREN_REQUIRE(i < params.size() && j < params.size(),
                  "mixed_partial: index out of range");
  if (i == j) {
    return second_partial(circuit, observable, params, i);
  }
  constexpr double kShift = M_PI / 2.0;
  std::vector<double> work(params.begin(), params.end());
  auto eval_at = [&](double si, double sj) {
    work[i] = params[i] + si;
    work[j] = params[j] + sj;
    const double value = eval(circuit, observable, work);
    work[i] = params[i];
    work[j] = params[j];
    return value;
  };
  return (eval_at(kShift, kShift) - eval_at(kShift, -kShift) -
          eval_at(-kShift, kShift) + eval_at(-kShift, -kShift)) /
         4.0;
}

RealMatrix hessian(const Circuit& circuit, const Observable& observable,
                   std::span<const double> params) {
  check(circuit, observable, params);
  QBARREN_REQUIRE(!params.empty(), "hessian: circuit has no parameters");
  const std::size_t p = params.size();
  RealMatrix h(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    h.at_unchecked(i, i) = second_partial(circuit, observable, params, i);
    for (std::size_t j = i + 1; j < p; ++j) {
      const double value = mixed_partial(circuit, observable, params, i, j);
      h.at_unchecked(i, j) = value;
      h.at_unchecked(j, i) = value;
    }
  }
  return h;
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
