// Test-only mutation hook for compiled execution plans.
//
// The PlanVerifier's negative-path tests need plans that are *wrong* in
// precisely one way — a swapped wire, a stale binding, a dropped fusion
// element — which the compiler can never produce. This hook is the single
// sanctioned way to build such plans: copy a correctly compiled plan,
// then corrupt one field through the mutable accessors. Nothing outside
// tests/ may include this header; production code sees CompiledCircuit
// only through shared_ptr<const>.
#pragma once

#include <memory>

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren::exec {

class PlanMutationHook {
 public:
  /// A private, mutable copy of a compiled plan. The copy shares no
  /// attachment with any circuit, so corrupting it cannot leak into
  /// production execution paths.
  [[nodiscard]] static std::shared_ptr<CompiledCircuit> mutable_copy(
      const CompiledCircuit& plan) {
    return std::shared_ptr<CompiledCircuit>(new CompiledCircuit(plan));
  }

  static std::vector<CompiledCircuit::PlanOp>& plan_ops(
      CompiledCircuit& plan) {
    return plan.plan_ops_;
  }
  static std::vector<gates::Mat2>& pool2(CompiledCircuit& plan) {
    return plan.pool2_;
  }
  static std::vector<gates::Mat2>& pool2_inverse(CompiledCircuit& plan) {
    return plan.pool2_inv_;
  }
  static std::vector<ComplexMatrix>& pool4(CompiledCircuit& plan) {
    return plan.pool4_;
  }
  static std::vector<ComplexMatrix>& pool4_inverse(CompiledCircuit& plan) {
    return plan.pool4_inv_;
  }
  static std::vector<std::uint32_t>& fused(CompiledCircuit& plan) {
    return plan.fused_;
  }
  static std::vector<CompiledCircuit::CzLadder>& cz_ladders(
      CompiledCircuit& plan) {
    return plan.cz_ladders_;
  }
  static std::vector<std::size_t>& param_source_op(CompiledCircuit& plan) {
    return plan.param_source_op_;
  }
  static std::vector<std::uint32_t>& param_plan_op(CompiledCircuit& plan) {
    return plan.param_plan_op_;
  }
  static std::size_t& num_qubits(CompiledCircuit& plan) {
    return plan.num_qubits_;
  }
  static std::size_t& num_params(CompiledCircuit& plan) {
    return plan.num_params_;
  }
};

}  // namespace qbarren::exec
