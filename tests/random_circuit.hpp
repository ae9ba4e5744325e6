// Random circuits mixing every op kind the builders expose, for tests that
// compare execution paths or pin results on arbitrary gate sequences.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/qsim/gates.hpp"

namespace qbarren::test_support {

/// Appends `num_ops` random ops of every kind to `c`.
inline void add_random_ops(Circuit& c, Rng& rng, std::size_t num_ops) {
  const std::size_t qubits = c.num_qubits();
  const auto axis = [&] {
    const std::size_t a = rng.index(3);
    return a == 0 ? gates::Axis::kX : a == 1 ? gates::Axis::kY : gates::Axis::kZ;
  };
  const auto pair = [&](std::size_t& a, std::size_t& b) {
    a = rng.index(qubits);
    b = rng.index(qubits - 1);
    if (b >= a) ++b;
  };
  for (std::size_t i = 0; i < num_ops; ++i) {
    const std::size_t q = rng.index(qubits);
    std::size_t a = 0;
    std::size_t b = 0;
    switch (rng.index(13)) {
      case 0:
        c.add_rotation(axis(), q);
        break;
      case 1:
        pair(a, b);
        c.add_controlled_rotation(axis(), a, b);
        break;
      case 2:
        c.add_fixed_rotation(axis(), q, rng.uniform(-M_PI, M_PI));
        break;
      case 3:
        c.add_hadamard(q);
        break;
      case 4:
        c.add_pauli_x(q);
        break;
      case 5:
        c.add_pauli_y(q);
        break;
      case 6:
        c.add_pauli_z(q);
        break;
      case 7:
        c.add_s(q);
        break;
      case 8:
        c.add_t(q);
        break;
      case 9:
        pair(a, b);
        c.add_cz(a, b);
        break;
      case 10:
        pair(a, b);
        c.add_cnot(a, b);
        break;
      case 11:
        pair(a, b);
        c.add_swap(a, b);
        break;
      case 12:
        if (rng.bernoulli(0.5)) {
          c.add_custom_gate("u3", gates::u3(rng.uniform(0.0, M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI)),
                            q);
        } else {
          pair(a, b);
          c.add_custom_two_qubit_gate(
              "crz*swap", gates::crz(rng.uniform(-M_PI, M_PI)) * gates::swap(),
              std::min(a, b), std::max(a, b));
        }
        break;
    }
  }
}

/// A `qubits`-wide circuit of `num_ops` random ops.
inline Circuit random_circuit(Rng& rng, std::size_t qubits,
                              std::size_t num_ops) {
  Circuit c(qubits);
  add_random_ops(c, rng, num_ops);
  return c;
}

}  // namespace qbarren::test_support
