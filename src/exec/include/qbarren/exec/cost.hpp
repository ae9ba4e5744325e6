// Cost-function binding: circuit + observable -> scalar loss.
//
// `CostFunction` pairs a Circuit with an Observable and evaluates
// C(theta) = <0| U(theta)^dagger H U(theta) |0>. For the paper's Eq 4 cost
// use `make_identity_cost`, which binds the global |0...0> projector. It
// sits in the exec layer because value() runs the circuit's compiled plan.
#pragma once

#include <memory>
#include <span>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren {

class CostFunction {
 public:
  /// Both pointers must be non-null and widths must agree.
  CostFunction(std::shared_ptr<const Circuit> circuit,
               std::shared_ptr<const Observable> observable);

  /// C(theta): simulate from |0...0> and take the expectation.
  [[nodiscard]] double value(std::span<const double> params) const;

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
  [[nodiscard]] const Observable& observable() const noexcept {
    return *observable_;
  }
  [[nodiscard]] std::shared_ptr<const Circuit> circuit_ptr() const noexcept {
    return circuit_;
  }
  [[nodiscard]] std::shared_ptr<const Observable> observable_ptr()
      const noexcept {
    return observable_;
  }

  [[nodiscard]] std::size_t num_parameters() const noexcept {
    return circuit_->num_parameters();
  }

 private:
  std::shared_ptr<const Circuit> circuit_;
  std::shared_ptr<const Observable> observable_;
};

/// The paper's Eq 4 identity-learning cost: C = 1 - p(|0...0>).
[[nodiscard]] CostFunction make_identity_cost(
    std::shared_ptr<const Circuit> circuit);

/// Local variant (Cerezo-style) for the cost-locality ablation.
[[nodiscard]] CostFunction make_local_identity_cost(
    std::shared_ptr<const Circuit> circuit);

}  // namespace qbarren
