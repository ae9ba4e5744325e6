// Hardware-efficient ansatz builders (paper §IV).
//
// Three concrete families are used in the paper:
//   * `variance_ansatz`  — Eq 2: per layer, one rotation per qubit with the
//     axis drawn uniformly from {RX, RY, RZ}, followed by a CZ
//     nearest-neighbour ladder. 200 such random circuits per qubit count
//     feed the gradient-variance analysis.
//   * `training_ansatz`  — Eq 3: per layer, RX then RY on every qubit,
//     followed by the CZ ladder. At n = 10, L = 5 this yields the paper's
//     quoted 145 gates / 100 parameters.
//   * `motivational_ansatz` — Fig 1: same layer structure as Eq 3, depth
//     100, used for the landscape scans.
#pragma once

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/rng.hpp"

namespace qbarren {

/// Which two-qubit gate entangles neighbours. The paper's HEA "typically"
/// uses CZ (Eq 1); CNOT is the common alternative, ablated in
/// bench_ablation_entangler.
enum class EntanglerGate {
  kCz,
  kCnot,
};

/// Which pairs the entangling layer connects.
enum class EntanglerTopology {
  kLinear,    ///< (0,1)(1,2)...(n-2,n-1) — the paper's E
  kRing,      ///< linear plus the closing (n-1,0) pair
  kAllToAll,  ///< every pair (i<j)
};

/// Appends one entangling layer with the given gate and topology.
void add_entangling_layer(Circuit& circuit, EntanglerGate gate,
                          EntanglerTopology topology);

struct VarianceAnsatzOptions {
  std::size_t layers = 100;  ///< paper keeps "substantial depth"; Fig 1 uses 100
  bool entangle = true;      ///< include the entangling layer
  EntanglerGate entangler = EntanglerGate::kCz;
  EntanglerTopology topology = EntanglerTopology::kLinear;
};

/// Builds an Eq 2 random HEA: rotation axes drawn from `rng`.
/// Records LayerShape{layers, num_qubits}.
[[nodiscard]] Circuit variance_ansatz(std::size_t num_qubits, Rng& rng,
                                      const VarianceAnsatzOptions& options =
                                          {});

/// Number of operations variance_ansatz appends (the same for every draw).
[[nodiscard]] std::size_t variance_ansatz_operations(
    std::size_t num_qubits, const VarianceAnsatzOptions& options = {});

struct TrainingAnsatzOptions {
  std::size_t layers = 5;  ///< paper trains at L = 5
  bool entangle = true;
  EntanglerGate entangler = EntanglerGate::kCz;
  EntanglerTopology topology = EntanglerTopology::kLinear;
};

/// Builds the Eq 3 training HEA (RX, RY per qubit per layer + CZ ladder).
/// Records LayerShape{layers, 2 * num_qubits}.
[[nodiscard]] Circuit training_ansatz(std::size_t num_qubits,
                                      const TrainingAnsatzOptions& options =
                                          {});

/// Fig 1 motivational circuit: the Eq 3 layer structure at `layers` depth
/// (the paper's landscape figure uses 100).
[[nodiscard]] Circuit motivational_ansatz(std::size_t num_qubits,
                                          std::size_t layers = 100);

/// Generic HEA: per layer, for each qubit apply the given rotation-axis
/// sequence, then a CZ nearest-neighbour ladder. The building block behind
/// the three named ansaetze, exposed for custom experiments.
[[nodiscard]] Circuit hardware_efficient_ansatz(
    std::size_t num_qubits, std::size_t layers,
    const std::vector<gates::Axis>& axes_per_qubit, bool entangle = true);

/// Appends one CZ nearest-neighbour ladder CZ(0,1) CZ(1,2) ... to `circuit`.
/// No-op on a single qubit (matching the paper's E = prod_{j=1}^{q-1}).
void add_cz_ladder(Circuit& circuit);

/// HEA variant with *trainable* entanglers: per layer, RY on every qubit
/// followed by a CRZ(theta) nearest-neighbour ladder. Parameters per
/// layer: qubits + (qubits - 1). Controlled rotations use the four-term
/// parameter-shift rule automatically. Records LayerShape.
[[nodiscard]] Circuit controlled_rotation_ansatz(std::size_t num_qubits,
                                                 std::size_t layers);

// --- identity-block ansatz (paper §II-a context; Grant et al. 2019) -------

/// A circuit whose blocks each consist of a random half followed by its
/// structural mirror. `mirror_pairs` lists (forward, mirrored) parameter
/// indices; initializing theta_mirror = -theta_forward makes every block —
/// and hence the whole circuit — exactly the identity (CZ gates are
/// diagonal, so the reversed ladder cancels itself), which breaks the
/// 2-design structure that causes barren plateaus while keeping the
/// expressive deep ansatz.
struct MirrorBlockAnsatz {
  Circuit circuit;
  std::vector<std::pair<std::size_t, std::size_t>> mirror_pairs;
};

/// Builds `blocks` identity-blocks on `num_qubits` qubits; each block's
/// forward half has `half_layers` Eq-2-style layers (random axis per qubit
/// + CZ ladder) whose axes come from `rng`.
[[nodiscard]] MirrorBlockAnsatz mirror_block_ansatz(std::size_t num_qubits,
                                                    std::size_t half_layers,
                                                    std::size_t blocks,
                                                    Rng& rng);

/// Draws parameters for a MirrorBlockAnsatz: forward parameters uniform on
/// [lo, hi), each mirrored parameter the exact negation of its partner, so
/// the circuit evaluates to the identity.
[[nodiscard]] std::vector<double> initialize_identity_blocks(
    const MirrorBlockAnsatz& ansatz, Rng& rng, double lo = 0.0,
    double hi = 2.0 * M_PI);

}  // namespace qbarren
