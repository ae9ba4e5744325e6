// Dense state-vector simulator.
//
// A `StateVector` holds the 2^n complex amplitudes of an n-qubit register
// (qubit 0 = least-significant index bit) and applies gates in place.
// Single-qubit and CZ applications are specialized bit-twiddling kernels —
// these dominate the paper's workload (deep hardware-efficient ansaetze) —
// while arbitrary two-qubit unitaries go through a generic 4x4 kernel.
//
// The simulator is exact (no sampling noise): probabilities and expectation
// values are computed directly from amplitudes, matching PennyLane's
// `default.qubit` analytic mode used by the paper.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "qbarren/linalg/matrix.hpp"

namespace qbarren {

class StateVector {
 public:
  /// |0...0> on `num_qubits` qubits. Requires 1 <= num_qubits <= 28
  /// (2^28 amplitudes ~= 4 GiB; the guard catches accidental overflow).
  explicit StateVector(std::size_t num_qubits);

  /// State with explicit amplitudes; size must be a power of two >= 2.
  /// Does not renormalize — callers wanting a unit state should pass one
  /// (checked by `norm()` in tests).
  StateVector(std::size_t num_qubits, std::vector<Complex> amplitudes);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return amps_.size();
  }

  /// Resets to |0...0>.
  void reset();

  [[nodiscard]] const std::vector<Complex>& amplitudes() const noexcept {
    return amps_;
  }
  [[nodiscard]] std::vector<Complex>& amplitudes() noexcept { return amps_; }

  [[nodiscard]] Complex amplitude(std::size_t basis_index) const;

  // --- gate application ----------------------------------------------------

  /// Applies a 2x2 unitary (or any 2x2 matrix — adjoint differentiation
  /// applies non-unitary derivatives) to `target`.
  void apply_single_qubit(const ComplexMatrix& u, std::size_t target);

  /// Applies a 4x4 matrix to the qubit pair (low, high basis bits =
  /// q_low, q_high respectively). `q_low` and `q_high` must differ.
  void apply_two_qubit(const ComplexMatrix& u, std::size_t q_low,
                       std::size_t q_high);

  // --- measurement / inner products -----------------------------------------

  /// Squared norm <psi|psi>.
  [[nodiscard]] double norm_squared() const;

  /// Rescales to unit norm; throws NumericalError on the zero vector.
  void normalize();

  /// Probability of measuring the given computational basis state.
  [[nodiscard]] double probability(std::size_t basis_index) const;

  /// Probability of qubit `q` measuring |1>.
  [[nodiscard]] double probability_one(std::size_t q) const;

  /// All 2^n basis probabilities.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// <this|other>. Dimensions must match.
  [[nodiscard]] Complex inner_product(const StateVector& other) const;

  /// |<this|other>|^2.
  [[nodiscard]] double fidelity(const StateVector& other) const;

  /// Expectation <psi| Z_q |psi> of Pauli-Z on one qubit.
  [[nodiscard]] double expectation_z(std::size_t q) const;

 private:
  void check_qubit(std::size_t q, const char* who) const;

  std::size_t num_qubits_ = 0;
  std::vector<Complex> amps_;
};

/// Full 2^n x 2^n unitary acting as `u` on `target` and identity elsewhere.
/// Test/reference helper — exponential in n; use only for small n.
[[nodiscard]] ComplexMatrix embed_single_qubit(const ComplexMatrix& u,
                                               std::size_t target,
                                               std::size_t num_qubits);

/// Full-register embedding of a 4x4 two-qubit matrix (reference helper).
[[nodiscard]] ComplexMatrix embed_two_qubit(const ComplexMatrix& u,
                                            std::size_t q_low,
                                            std::size_t q_high,
                                            std::size_t num_qubits);

}  // namespace qbarren
