#include "qbarren/analysis/dataflow.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "qbarren/common/error.hpp"

namespace qbarren {

namespace {

constexpr std::size_t kWordBits = 64;

bool test_bit(const std::uint64_t* words, std::size_t q) {
  return ((words[q / kWordBits] >> (q % kWordBits)) & 1U) != 0;
}

void set_bit(std::uint64_t* words, std::size_t q) {
  words[q / kWordBits] |= std::uint64_t{1} << (q % kWordBits);
}

/// One reverse sweep of seen[k] = transfer(op[k+1], seen[k+1]), seen[last]
/// = boundary, over supports of `words` words each. The transfer function
/// of a two-qubit gate merges both of its qubits into the support whenever
/// it touches either; single-qubit gates preserve it. Returns whether any
/// support changed.
bool reverse_sweep(const std::vector<Operation>& ops,
                   const std::uint64_t* boundary, std::size_t words,
                   std::uint64_t* seen) {
  const std::size_t n = ops.size();
  bool changed = false;
  for (std::size_t k = n; k-- > 0;) {
    const std::uint64_t* after =
        k + 1 == n ? boundary : seen + (k + 1) * words;
    std::uint64_t* slot = seen + k * words;
    bool spread = false;
    std::size_t q0 = 0;
    std::size_t q1 = 0;
    if (k + 1 < n) {
      const Operation& next = ops[k + 1];
      q0 = next.qubit0;
      q1 = next.qubit1;
      spread = is_two_qubit(next.kind) &&
               (test_bit(after, q0) || test_bit(after, q1));
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t value = after[w];
      if (spread) {
        if (q0 / kWordBits == w) value |= std::uint64_t{1} << (q0 % kWordBits);
        if (q1 / kWordBits == w) value |= std::uint64_t{1} << (q1 % kWordBits);
      }
      changed = changed || value != slot[w];
      slot[w] = value;
    }
  }
  return changed;
}

}  // namespace

CircuitDataflow::CircuitDataflow(const Circuit& circuit)
    : circuit_(&circuit), ops_size_(circuit.num_operations()) {
  const auto& ops = circuit.operations();
  entangled_.assign(circuit.num_qubits(), false);
  for (auto& chain : next_) chain.assign(ops_size_, kNoOp);
  param_op_.assign(circuit.num_parameters(), kNoOp);

  struct WireTail {
    std::size_t op = kNoOp;
    std::size_t slot = 0;
  };
  std::vector<WireTail> tail(circuit.num_qubits());

  for (std::size_t k = 0; k < ops_size_; ++k) {
    const Operation& op = ops[k];
    const std::size_t wire_slots = is_two_qubit(op.kind) ? 2 : 1;
    for (std::size_t s = 0; s < wire_slots; ++s) {
      const std::size_t w = s == 0 ? op.qubit0 : op.qubit1;
      QBARREN_REQUIRE(w < circuit.num_qubits(),
                      "CircuitDataflow: operation qubit out of range");
      if (tail[w].op != kNoOp) {
        next_[tail[w].slot][tail[w].op] = k;
      }
      tail[w] = {k, s};
      if (is_two_qubit(op.kind)) {
        entangled_[w] = true;
      }
    }
    if (is_parameterized(op.kind)) {
      QBARREN_REQUIRE(op.param_index < param_op_.size(),
                      "CircuitDataflow: parameter index out of range");
      if (param_op_[op.param_index] == kNoOp) {
        param_op_[op.param_index] = k;
      }
    }
  }
}

std::array<std::size_t, 2> CircuitDataflow::wires(std::size_t op) const {
  QBARREN_REQUIRE(op < ops_size_, "CircuitDataflow::wires: op out of range");
  const Operation& o = circuit_->operations()[op];
  return {o.qubit0, o.qubit1};
}

std::size_t CircuitDataflow::wire_count(std::size_t op) const {
  QBARREN_REQUIRE(op < ops_size_,
                  "CircuitDataflow::wire_count: op out of range");
  return is_two_qubit(circuit_->operations()[op].kind) ? 2 : 1;
}

std::size_t CircuitDataflow::next_on_wire(std::size_t op,
                                          std::size_t qubit) const {
  QBARREN_REQUIRE(op < ops_size_,
                  "CircuitDataflow::next_on_wire: op out of range");
  const auto w = wires(op);
  for (std::size_t s = 0; s < wire_count(op); ++s) {
    if (w[s] == qubit) return next_[s][op];
  }
  throw InvalidArgument(
      "CircuitDataflow::next_on_wire: qubit is not a wire of op");
}

bool CircuitDataflow::entangled(std::size_t q) const {
  QBARREN_REQUIRE(q < entangled_.size(),
                  "CircuitDataflow::entangled: qubit out of range");
  return entangled_[q];
}

std::size_t CircuitDataflow::op_for_parameter(std::size_t p) const {
  QBARREN_REQUIRE(p < param_op_.size(),
                  "CircuitDataflow::op_for_parameter: parameter out of range");
  return param_op_[p];
}

CircuitDataflow::LightCone CircuitDataflow::backward_light_cone(
    const std::vector<std::size_t>& observable_qubits) const {
  QBARREN_REQUIRE(!observable_qubits.empty(),
                  "backward_light_cone: empty observable support");
  // A support is a packed qubit bitset of `words` 64-bit words: one word
  // per op up to 64 qubits, ceil(q/64) above.
  const std::size_t words =
      (circuit_->num_qubits() + kWordBits - 1) / kWordBits;
  std::vector<std::uint64_t> boundary(words, 0);
  for (const std::size_t q : observable_qubits) {
    QBARREN_REQUIRE(q < circuit_->num_qubits(),
                    "backward_light_cone: observable qubit out of range");
    set_bit(boundary.data(), q);
  }

  const auto& ops = circuit_->operations();

  // seen[k] (words [k*words, (k+1)*words)) = support of the observable
  // conjugated through every operation AFTER k — what operation k "sees"
  // on the backward walk. Iterate reverse sweeps to a fixpoint: one sweep
  // suffices for a straight-line program; the extra confirming sweep
  // checks that rather than assuming it. Every support holds the
  // boundary's bits, so the all-zero start differs from the first sweep's
  // value at every op.
  std::vector<std::uint64_t> seen(ops_size_ * words, 0);
  LightCone cone;
  bool changed = ops_size_ > 0;
  while (changed) {
    ++cone.sweeps;
    changed = reverse_sweep(ops, boundary.data(), words, seen.data());
  }

  cone.support_width.assign(ops_size_, 0);
  cone.alive.assign(circuit_->num_parameters(), false);
  cone.cone_width.assign(circuit_->num_parameters(), 0);
  for (std::size_t k = 0; k < ops_size_; ++k) {
    const std::uint64_t* support = seen.data() + k * words;
    std::size_t width = 0;
    for (std::size_t w = 0; w < words; ++w) {
      width += static_cast<std::size_t>(std::popcount(support[w]));
    }
    cone.support_width[k] = width;
    const Operation& op = ops[k];
    if (!is_parameterized(op.kind)) continue;
    const bool alive =
        test_bit(support, op.qubit0) ||
        (is_two_qubit(op.kind) && test_bit(support, op.qubit1));
    if (alive && !cone.alive[op.param_index]) {
      cone.alive[op.param_index] = true;
      cone.cone_width[op.param_index] = width;
    }
  }
  for (const bool alive : cone.alive) {
    if (!alive) ++cone.dead_count;
  }
  return cone;
}

}  // namespace qbarren
