#include "qbarren/bp/cost_kind.hpp"

#include "qbarren/bp/options_table.hpp"

namespace qbarren {

std::shared_ptr<Observable> make_cost_observable(CostKind kind,
                                                 std::size_t num_qubits) {
  switch (kind) {
    case CostKind::kGlobalZero:
      return std::make_shared<GlobalZeroObservable>(num_qubits);
    case CostKind::kLocalZero:
      return std::make_shared<LocalZeroObservable>(num_qubits);
    case CostKind::kPauliZZ: {
      QBARREN_REQUIRE(num_qubits >= 2,
                      "make_cost_observable: ZZ needs >= 2 qubits");
      std::string s(num_qubits, 'I');
      s[0] = 'Z';
      s[1] = 'Z';
      return std::make_shared<PauliStringObservable>(std::move(s));
    }
  }
  throw InvalidArgument("make_cost_observable: unknown cost kind");
}

std::string cost_kind_name(CostKind kind) { return kCostKindNames.name(kind); }

std::vector<std::size_t> cost_observable_qubits(CostKind kind,
                                                std::size_t num_qubits) {
  QBARREN_REQUIRE(num_qubits >= 1,
                  "cost_observable_qubits: need at least one qubit");
  if (kind == CostKind::kPauliZZ) {
    QBARREN_REQUIRE(num_qubits >= 2,
                    "cost_observable_qubits: ZZ needs >= 2 qubits");
    return {0, 1};
  }
  std::vector<std::size_t> all(num_qubits);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    all[q] = q;
  }
  return all;
}

bool is_global_cost(CostKind kind) noexcept {
  return kind == CostKind::kGlobalZero;
}

CostKind cost_kind_from_name(const std::string& name) {
  return kCostKindNames.parse(name);
}

}  // namespace qbarren
