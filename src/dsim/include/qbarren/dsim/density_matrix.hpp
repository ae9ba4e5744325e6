// Exact density-matrix simulator.
//
// The paper frames its study in the NISQ setting (§I) where circuits run
// under noise; mixed states need a density matrix rho. This module is the
// exact (no-trajectory) companion to qsim::StateVector: unitaries act as
// rho -> U rho U^dag, noise as Kraus channels rho -> sum_k K rho K^dag.
// Memory is O(4^n) — intended for n <= 10 (16 MiB of amplitudes).
//
// Storage: rho is held row-major as the amplitudes of a 2n-qubit
// StateVector, element (r, c) at flat index r * 2^n + c. Row bit q is then
// flat bit q + n and column bit q is flat bit q, so U rho U^dag is the exec
// kernel of U on qubit q + n followed by the kernel of conj(U) on qubit q
// (qbarren/exec/kernels.hpp): the density matrix has no gate loops of its
// own.
#pragma once

#include <vector>

#include "qbarren/obs/observable.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren {

/// A CPTP map given by its Kraus operators; all operators share one shape
/// (2x2 for single-qubit, 4x4 for two-qubit channels) and satisfy
/// sum_k K^dag K = I (validated at construction).
class KrausChannel {
 public:
  explicit KrausChannel(std::vector<ComplexMatrix> operators,
                        std::string name = "channel");

  [[nodiscard]] const std::vector<ComplexMatrix>& operators() const noexcept {
    return operators_;
  }
  /// 1 for 2x2 channels, 2 for 4x4 channels.
  [[nodiscard]] std::size_t num_qubits() const noexcept { return qubits_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::vector<ComplexMatrix> operators_;
  std::size_t qubits_ = 1;
  std::string name_;
};

class DensityMatrix {
 public:
  /// |0...0><0...0| on num_qubits qubits (1 <= n <= 10).
  explicit DensityMatrix(std::size_t num_qubits);

  /// rho = |psi><psi|.
  [[nodiscard]] static DensityMatrix pure(const StateVector& state);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }

  [[nodiscard]] Complex element(std::size_t row, std::size_t col) const;

  // --- evolution -----------------------------------------------------------

  /// rho <- U rho U^dag for a 2x2 unitary (or any 2x2 matrix) on `target`.
  void apply_unitary_1q(const ComplexMatrix& u, std::size_t target);

  /// rho <- U rho U^dag for a 4x4 matrix; `q_low` maps to matrix bit 0.
  void apply_unitary_2q(const ComplexMatrix& u, std::size_t q_low,
                        std::size_t q_high);

  /// Specialized CZ conjugation (diagonal, symmetric in the qubits).
  void apply_cz(std::size_t a, std::size_t b);

  /// rho <- sum_k K rho K^dag for a single-qubit channel.
  void apply_channel_1q(const KrausChannel& channel, std::size_t target);

  /// Two-qubit channel; `q_low` maps to Kraus-matrix bit 0.
  void apply_channel_2q(const KrausChannel& channel, std::size_t q_low,
                        std::size_t q_high);

  // --- readout ---------------------------------------------------------------

  /// tr(rho) — 1 for any physical state (channels are trace-preserving).
  [[nodiscard]] double trace() const;

  /// tr(rho^2) in [1/2^n, 1]; 1 iff pure.
  [[nodiscard]] double purity() const;

  /// Diagonal element rho_ii = probability of basis state i.
  [[nodiscard]] double probability(std::size_t basis_index) const;

  /// tr(H rho) for any Observable (uses Observable::apply column-wise).
  [[nodiscard]] double expectation(const Observable& observable) const;

  /// Max |rho - rho^dag| element — Hermiticity diagnostic for tests.
  [[nodiscard]] double hermiticity_error() const;

 private:
  void check_qubit(std::size_t q, const char* who) const;

  std::size_t num_qubits_ = 0;
  std::size_t dim_ = 0;
  StateVector data_;  ///< row-major dim x dim, on 2 * num_qubits_ qubits
};

}  // namespace qbarren
