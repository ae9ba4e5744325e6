#include "qbarren/obs/hamiltonian.hpp"

#include <cmath>

namespace qbarren {

PauliSumObservable::PauliSumObservable(std::vector<PauliTerm> terms)
    : terms_(std::move(terms)) {
  QBARREN_REQUIRE(!terms_.empty(), "PauliSumObservable: no terms");
  width_ = terms_.front().paulis.size();
  QBARREN_REQUIRE(width_ >= 1, "PauliSumObservable: empty Pauli string");
  for (const PauliTerm& term : terms_) {
    QBARREN_REQUIRE(term.paulis.size() == width_,
                    "PauliSumObservable: inconsistent term widths");
    for (char ch : term.paulis) {
      QBARREN_REQUIRE(ch == 'I' || ch == 'X' || ch == 'Y' || ch == 'Z',
                      "PauliSumObservable: characters must be I/X/Y/Z");
    }
  }
}

StateVector PauliSumObservable::apply(const StateVector& state) const {
  QBARREN_REQUIRE(state.num_qubits() == width_,
                  "PauliSumObservable: width mismatch");
  StateVector acc(width_,
                  std::vector<Complex>(state.dimension(), Complex{0.0, 0.0}));
  for (const PauliTerm& term : terms_) {
    const PauliStringObservable pauli(term.paulis);
    const StateVector applied = pauli.apply(state);
    auto& out = acc.amplitudes();
    const auto& in = applied.amplitudes();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += term.coefficient * in[i];
    }
  }
  return acc;
}

double PauliSumObservable::expectation(const StateVector& state) const {
  QBARREN_REQUIRE(state.num_qubits() == width_,
                  "PauliSumObservable: width mismatch");
  double acc = 0.0;
  for (const PauliTerm& term : terms_) {
    const PauliStringObservable pauli(term.paulis);
    acc += term.coefficient * pauli.expectation(state);
  }
  return acc;
}

std::string PauliSumObservable::name() const {
  return "pauli-sum[" + std::to_string(terms_.size()) + " terms, " +
         std::to_string(width_) + " qubits]";
}

double PauliSumObservable::one_norm() const {
  double acc = 0.0;
  for (const PauliTerm& term : terms_) {
    acc += std::abs(term.coefficient);
  }
  return acc;
}

PauliSumObservable transverse_field_ising(std::size_t num_qubits,
                                          double coupling_j, double field_h) {
  QBARREN_REQUIRE(num_qubits >= 2, "transverse_field_ising: need >= 2 qubits");
  std::vector<PauliTerm> terms;
  for (std::size_t i = 0; i + 1 < num_qubits; ++i) {
    std::string zz(num_qubits, 'I');
    zz[i] = 'Z';
    zz[i + 1] = 'Z';
    terms.push_back(PauliTerm{-coupling_j, std::move(zz)});
  }
  for (std::size_t i = 0; i < num_qubits; ++i) {
    std::string x(num_qubits, 'I');
    x[i] = 'X';
    terms.push_back(PauliTerm{-field_h, std::move(x)});
  }
  return PauliSumObservable(std::move(terms));
}

double ground_state_energy(const PauliSumObservable& hamiltonian,
                           std::size_t max_iterations, double tolerance) {
  // Power iteration on M = shift*I - H: M's dominant eigenvector is H's
  // ground state when shift >= max eigenvalue of H; one_norm() is such a
  // bound. Deterministic start vector with non-uniform amplitudes to avoid
  // landing on a symmetry-orthogonal subspace.
  const std::size_t n = hamiltonian.num_qubits();
  QBARREN_REQUIRE(n <= 12, "ground_state_energy: limited to 12 qubits");
  const double shift = hamiltonian.one_norm() + 1.0;

  const std::size_t dim = std::size_t{1} << n;
  std::vector<Complex> v0(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    v0[i] = Complex{1.0 + 0.37 * std::sin(static_cast<double>(i) + 0.5),
                    0.11 * std::cos(1.7 * static_cast<double>(i))};
  }
  StateVector state(n, std::move(v0));
  state.normalize();

  double energy = hamiltonian.expectation(state);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    // state <- normalize(shift * state - H state).
    const StateVector h_state = hamiltonian.apply(state);
    auto& amps = state.amplitudes();
    const auto& h_amps = h_state.amplitudes();
    for (std::size_t i = 0; i < dim; ++i) {
      amps[i] = shift * amps[i] - h_amps[i];
    }
    state.normalize();
    const double next = hamiltonian.expectation(state);
    if (std::abs(next - energy) < tolerance) {
      return next;
    }
    energy = next;
  }
  return energy;
}

}  // namespace qbarren
