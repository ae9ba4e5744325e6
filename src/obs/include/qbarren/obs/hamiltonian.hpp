// Weighted Pauli-sum Hamiltonians.
//
// PQCs' motivating applications (paper §I: chemistry, optimization)
// minimize <psi(theta)| H |psi(theta)> for H = sum_k c_k P_k with Pauli
// strings P_k. `PauliSumObservable` implements the Observable interface so
// Hamiltonians plug into every gradient engine, optimizer, and experiment
// in the library. A transverse-field Ising factory provides a standard
// benchmark instance, and a power-iteration ground-state solver gives the
// exact reference energy for small systems.
#pragma once

#include <utility>
#include <vector>

#include "qbarren/obs/observable.hpp"

namespace qbarren {

struct PauliTerm {
  double coefficient = 0.0;
  std::string paulis;  ///< one of I/X/Y/Z per qubit, low qubit first
};

class PauliSumObservable final : public Observable {
 public:
  /// All terms must be non-empty and share one width.
  explicit PauliSumObservable(std::vector<PauliTerm> terms);

  [[nodiscard]] double expectation(const StateVector& state) const override;
  [[nodiscard]] StateVector apply(const StateVector& state) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t num_qubits() const override { return width_; }

  [[nodiscard]] const std::vector<PauliTerm>& terms() const noexcept {
    return terms_;
  }

  /// Sum of |coefficients| — an upper bound on |<H>| (triangle
  /// inequality), used for normalization and sanity checks.
  [[nodiscard]] double one_norm() const;

 private:
  std::vector<PauliTerm> terms_;
  std::size_t width_ = 0;
};

/// Transverse-field Ising chain with open boundaries:
///   H = -J sum_i Z_i Z_{i+1} - h sum_i X_i.
[[nodiscard]] PauliSumObservable transverse_field_ising(std::size_t num_qubits,
                                                        double coupling_j,
                                                        double field_h);

/// Smallest eigenvalue of H by inverse-shifted power iteration on
/// (one_norm * I - H), exact up to `tolerance` (spectral gap permitting).
/// Dense in the state dimension — intended for num_qubits <= 12.
[[nodiscard]] double ground_state_energy(const PauliSumObservable& hamiltonian,
                                         std::size_t max_iterations = 2000,
                                         double tolerance = 1e-10);

}  // namespace qbarren
