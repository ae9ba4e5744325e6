// Circuit dataflow framework: the shared substrate for data-driven lint
// rules and static plan analysis.
//
// A circuit is a straight-line program over qubit "wires"; almost every
// static question about it — which gates are adjacent up to commutation,
// which parameter a gradient engine differentiates through, how far an
// observable's support reaches backward — is a query over the same three
// structures:
//
//   * the **wire graph**: per-qubit def-use chains linking each operation
//     to its successor on every wire it touches. Two operations adjacent
//     on all shared wires are adjacent *up to commutation*: everything
//     between them in program order acts on disjoint qubits and therefore
//     commutes past both.
//   * the **parameter dependence graph**: which operation consumes each
//     trainable parameter (the builders produce exactly one consumer;
//     for hand-built circuits the graph records the first, or none).
//   * the **backward light cone**: the observable's support propagated
//     backward through the circuit as a fixpoint of the conservative
//     transfer function "a two-qubit gate touching the support merges
//     both of its qubits into it". For a straight-line program one
//     reverse sweep reaches the fixpoint; the pass iterates until the
//     per-op supports are stable, so the invariant is checked, not
//     assumed. Each op's support is a packed qubit bitset in one flat
//     array: one 64-bit word per op up to 64 qubits, ceil(q/64) words
//     per op above that, so a sweep allocates nothing per op.
//
// Rules QB001/QB004/QB008/QB009 run entirely on these structures instead
// of re-scanning the operation list with rule-specific loops, and tests
// cross-check the cone against bp/lightcone.hpp's single-pass analysis.
// One lint_circuit call builds one dataflow and computes one light cone
// of the declared support: QB001, QB009 and the variance predictor
// (predict.hpp), which borrows the same dataflow, all read it.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "qbarren/circuit/circuit.hpp"

namespace qbarren {

class CircuitDataflow {
 public:
  /// Sentinel: no operation (start/end of a wire chain, unconsumed
  /// parameter).
  static constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);

  /// Builds the wire graph and parameter dependence graph in one pass
  /// over the operation list. The circuit must outlive the dataflow.
  explicit CircuitDataflow(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_size_; }

  // --- wire graph ----------------------------------------------------------

  /// The next operation on wire `qubit` after operation `op`; kNoOp at
  /// the end of the chain. `qubit` must be a wire of `op`.
  [[nodiscard]] std::size_t next_on_wire(std::size_t op,
                                         std::size_t qubit) const;

  /// The wires of operation `op`: {qubit0} for single-qubit kinds,
  /// {qubit0, qubit1} for two-qubit kinds.
  [[nodiscard]] std::array<std::size_t, 2> wires(std::size_t op) const;
  [[nodiscard]] std::size_t wire_count(std::size_t op) const;

  /// True when some two-qubit operation touches qubit `q` (the negation
  /// is QB004's "product subsystem" condition).
  [[nodiscard]] bool entangled(std::size_t q) const;

  // --- parameter dependence graph ------------------------------------------

  /// The first operation consuming parameter `p`; kNoOp when none does.
  [[nodiscard]] std::size_t op_for_parameter(std::size_t p) const;

  // --- backward light cone -------------------------------------------------

  struct LightCone {
    /// alive[p]: parameter p's gradient is not structurally zero under
    /// the analyzed observable support (same semantics as
    /// bp::analyze_light_cone).
    std::vector<bool> alive;

    /// cone_width[p]: number of qubits the observable's support has
    /// spread to at parameter p's operation — the width of the effective
    /// register its gradient actually sees. 0 for dead or unconsumed
    /// parameters.
    std::vector<std::size_t> cone_width;

    /// support_width[k]: |support| as seen by operation k (conjugated
    /// through every operation after k).
    std::vector<std::size_t> support_width;

    std::size_t dead_count = 0;
    std::size_t sweeps = 0;  ///< reverse sweeps until the fixpoint held
  };

  /// Propagates the observable's support backward to a fixpoint. Throws
  /// InvalidArgument on an empty support or an out-of-range qubit.
  [[nodiscard]] LightCone backward_light_cone(
      const std::vector<std::size_t>& observable_qubits) const;

 private:
  const Circuit* circuit_;
  std::size_t ops_size_ = 0;
  // next_ is indexed [wire slot][op]: slot 0 = qubit0, slot 1 = qubit1
  // (two-qubit kinds only).
  std::array<std::vector<std::size_t>, 2> next_;
  std::vector<bool> entangled_;
  std::vector<std::size_t> param_op_;  ///< first consumer per param
};

}  // namespace qbarren
