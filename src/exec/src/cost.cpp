#include "qbarren/exec/cost.hpp"

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

CostFunction::CostFunction(std::shared_ptr<const Circuit> circuit,
                           std::shared_ptr<const Observable> observable)
    : circuit_(std::move(circuit)), observable_(std::move(observable)) {
  QBARREN_REQUIRE(circuit_ != nullptr, "CostFunction: null circuit");
  QBARREN_REQUIRE(observable_ != nullptr, "CostFunction: null observable");
  QBARREN_REQUIRE(circuit_->num_qubits() == observable_->num_qubits(),
                  "CostFunction: circuit/observable width mismatch");
}

double CostFunction::value(std::span<const double> params) const {
  return observable_->expectation(exec::simulate(*circuit_, params));
}

CostFunction make_identity_cost(std::shared_ptr<const Circuit> circuit) {
  QBARREN_REQUIRE(circuit != nullptr, "make_identity_cost: null circuit");
  auto obs = std::make_shared<GlobalZeroObservable>(circuit->num_qubits());
  return CostFunction(std::move(circuit), std::move(obs));
}

}  // namespace qbarren
