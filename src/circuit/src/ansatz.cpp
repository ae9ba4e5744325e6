#include "qbarren/circuit/ansatz.hpp"

namespace qbarren {

void add_cz_ladder(Circuit& circuit) {
  for (std::size_t q = 0; q + 1 < circuit.num_qubits(); ++q) {
    circuit.add_cz(q, q + 1);
  }
}

namespace {

/// Gates add_entangling_layer appends on `n` qubits.
std::size_t entangling_layer_size(std::size_t n, EntanglerTopology topology) {
  const std::size_t ladder = n == 0 ? 0 : n - 1;
  switch (topology) {
    case EntanglerTopology::kLinear:
      return ladder;
    case EntanglerTopology::kRing:
      return ladder + (n > 2 ? 1 : 0);
    case EntanglerTopology::kAllToAll:
      return n * ladder / 2;
  }
  return 0;
}

}  // namespace

void add_entangling_layer(Circuit& circuit, EntanglerGate gate,
                          EntanglerTopology topology) {
  const std::size_t n = circuit.num_qubits();
  auto add_pair = [&](std::size_t a, std::size_t b) {
    if (gate == EntanglerGate::kCz) {
      circuit.add_cz(a, b);
    } else {
      circuit.add_cnot(a, b);
    }
  };
  switch (topology) {
    case EntanglerTopology::kLinear:
      for (std::size_t q = 0; q + 1 < n; ++q) {
        add_pair(q, q + 1);
      }
      return;
    case EntanglerTopology::kRing:
      for (std::size_t q = 0; q + 1 < n; ++q) {
        add_pair(q, q + 1);
      }
      if (n > 2) {
        add_pair(n - 1, 0);
      }
      return;
    case EntanglerTopology::kAllToAll:
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          add_pair(a, b);
        }
      }
      return;
  }
  throw InvalidArgument("add_entangling_layer: unknown topology");
}

Circuit variance_ansatz(std::size_t num_qubits, Rng& rng,
                        const VarianceAnsatzOptions& options) {
  QBARREN_REQUIRE(options.layers >= 1, "variance_ansatz: need >= 1 layer");
  Circuit c(num_qubits);
  c.reserve_operations(variance_ansatz_operations(num_qubits, options));
  constexpr gates::Axis kAxes[3] = {gates::Axis::kX, gates::Axis::kY,
                                    gates::Axis::kZ};
  for (std::size_t layer = 0; layer < options.layers; ++layer) {
    for (std::size_t q = 0; q < num_qubits; ++q) {
      c.add_rotation(kAxes[rng.index(3)], q);
    }
    if (options.entangle) {
      add_entangling_layer(c, options.entangler, options.topology);
    }
  }
  c.set_layer_shape(LayerShape{options.layers, num_qubits});
  return c;
}

std::size_t variance_ansatz_operations(std::size_t num_qubits,
                                      const VarianceAnsatzOptions& options) {
  const std::size_t entanglers =
      options.entangle ? entangling_layer_size(num_qubits, options.topology)
                       : 0;
  return options.layers * (num_qubits + entanglers);
}

Circuit training_ansatz(std::size_t num_qubits,
                        const TrainingAnsatzOptions& options) {
  QBARREN_REQUIRE(options.layers >= 1, "training_ansatz: need >= 1 layer");
  Circuit c(num_qubits);
  for (std::size_t layer = 0; layer < options.layers; ++layer) {
    // Eq 3 writes RY(theta) RX(theta) per qubit: RX acts on the state
    // first, then RY.
    for (std::size_t q = 0; q < num_qubits; ++q) {
      c.add_rotation(gates::Axis::kX, q);
      c.add_rotation(gates::Axis::kY, q);
    }
    if (options.entangle) {
      add_entangling_layer(c, options.entangler, options.topology);
    }
  }
  c.set_layer_shape(LayerShape{options.layers, 2 * num_qubits});
  return c;
}

Circuit motivational_ansatz(std::size_t num_qubits, std::size_t layers) {
  TrainingAnsatzOptions options;
  options.layers = layers;
  return training_ansatz(num_qubits, options);
}

Circuit hardware_efficient_ansatz(std::size_t num_qubits, std::size_t layers,
                                  const std::vector<gates::Axis>& axes_per_qubit,
                                  bool entangle) {
  QBARREN_REQUIRE(layers >= 1, "hardware_efficient_ansatz: need >= 1 layer");
  QBARREN_REQUIRE(!axes_per_qubit.empty(),
                  "hardware_efficient_ansatz: need at least one rotation per "
                  "qubit per layer");
  Circuit c(num_qubits);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t q = 0; q < num_qubits; ++q) {
      for (gates::Axis axis : axes_per_qubit) {
        c.add_rotation(axis, q);
      }
    }
    if (entangle) {
      add_cz_ladder(c);
    }
  }
  c.set_layer_shape(LayerShape{layers, num_qubits * axes_per_qubit.size()});
  return c;
}

Circuit controlled_rotation_ansatz(std::size_t num_qubits,
                                   std::size_t layers) {
  QBARREN_REQUIRE(layers >= 1, "controlled_rotation_ansatz: need >= 1 layer");
  QBARREN_REQUIRE(num_qubits >= 2,
                  "controlled_rotation_ansatz: need >= 2 qubits for the "
                  "CRZ ladder");
  Circuit c(num_qubits);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t q = 0; q < num_qubits; ++q) {
      (void)c.add_rotation(gates::Axis::kY, q);
    }
    for (std::size_t q = 0; q + 1 < num_qubits; ++q) {
      (void)c.add_controlled_rotation(gates::Axis::kZ, q, q + 1);
    }
  }
  c.set_layer_shape(LayerShape{layers, 2 * num_qubits - 1});
  return c;
}

MirrorBlockAnsatz mirror_block_ansatz(std::size_t num_qubits,
                                      std::size_t half_layers,
                                      std::size_t blocks, Rng& rng) {
  QBARREN_REQUIRE(half_layers >= 1, "mirror_block_ansatz: need >= 1 layer");
  QBARREN_REQUIRE(blocks >= 1, "mirror_block_ansatz: need >= 1 block");

  MirrorBlockAnsatz out{Circuit(num_qubits), {}};
  Circuit& c = out.circuit;
  constexpr gates::Axis kAxes[3] = {gates::Axis::kX, gates::Axis::kY,
                                    gates::Axis::kZ};

  for (std::size_t b = 0; b < blocks; ++b) {
    // Forward half: record (layer, qubit) -> (axis, param index).
    std::vector<std::vector<std::pair<gates::Axis, std::size_t>>> layers(
        half_layers);
    for (std::size_t layer = 0; layer < half_layers; ++layer) {
      for (std::size_t q = 0; q < num_qubits; ++q) {
        const gates::Axis axis = kAxes[rng.index(3)];
        layers[layer].emplace_back(axis, c.add_rotation(axis, q));
      }
      add_cz_ladder(c);
    }
    // Mirrored half: layers reversed; within each layer first undo the
    // ladder (self-inverse — all CZ are diagonal and mutually commuting),
    // then the rotations in reverse qubit order.
    for (std::size_t layer = half_layers; layer-- > 0;) {
      add_cz_ladder(c);
      for (std::size_t q = num_qubits; q-- > 0;) {
        const auto& [axis, forward_param] = layers[layer][q];
        const std::size_t mirror_param = c.add_rotation(axis, q);
        out.mirror_pairs.emplace_back(forward_param, mirror_param);
      }
    }
  }
  c.set_layer_shape(LayerShape{2 * half_layers * blocks, num_qubits});
  return out;
}

std::vector<double> initialize_identity_blocks(const MirrorBlockAnsatz& ansatz,
                                               Rng& rng, double lo,
                                               double hi) {
  QBARREN_REQUIRE(lo < hi, "initialize_identity_blocks: lo must be < hi");
  QBARREN_REQUIRE(
      ansatz.mirror_pairs.size() * 2 == ansatz.circuit.num_parameters(),
      "initialize_identity_blocks: pairing does not cover the parameters");
  std::vector<double> params(ansatz.circuit.num_parameters(), 0.0);
  for (const auto& [forward, mirror] : ansatz.mirror_pairs) {
    const double theta = rng.uniform(lo, hi);
    params[forward] = theta;
    params[mirror] = -theta;
  }
  return params;
}

}  // namespace qbarren
