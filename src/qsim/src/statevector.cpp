#include "qbarren/qsim/statevector.hpp"

#include <cmath>

namespace qbarren {

namespace {
constexpr std::size_t kMaxQubits = 28;

bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  QBARREN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
                  "StateVector: qubit count out of supported range");
  amps_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

StateVector::StateVector(std::size_t num_qubits,
                         std::vector<Complex> amplitudes)
    : num_qubits_(num_qubits), amps_(std::move(amplitudes)) {
  QBARREN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
                  "StateVector: qubit count out of supported range");
  QBARREN_REQUIRE(is_power_of_two(amps_.size()) &&
                      amps_.size() == (std::size_t{1} << num_qubits),
                  "StateVector: amplitude count must equal 2^num_qubits");
}

Complex StateVector::amplitude(std::size_t basis_index) const {
  QBARREN_REQUIRE(basis_index < amps_.size(),
                  "StateVector::amplitude: basis index out of range");
  return amps_[basis_index];
}

void StateVector::check_qubit(std::size_t q, const char* who) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(who) + ": qubit index out of range");
  }
}

void StateVector::apply_single_qubit(const ComplexMatrix& u,
                                     std::size_t target) {
  check_qubit(target, "apply_single_qubit");
  QBARREN_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "apply_single_qubit: matrix must be 2x2");
  const Complex u00 = u.at_unchecked(0, 0);
  const Complex u01 = u.at_unchecked(0, 1);
  const Complex u10 = u.at_unchecked(1, 0);
  const Complex u11 = u.at_unchecked(1, 1);

  const std::size_t bit = std::size_t{1} << target;
  const std::size_t dim = amps_.size();
  // Enumerate indices with the target bit clear by splitting the index into
  // high (above target) and low (below target) parts.
  const std::size_t low_mask = bit - 1;
  for (std::size_t i = 0; i < dim / 2; ++i) {
    const std::size_t i0 = ((i & ~low_mask) << 1) | (i & low_mask);
    const std::size_t i1 = i0 | bit;
    const Complex a0 = amps_[i0];
    const Complex a1 = amps_[i1];
    amps_[i0] = u00 * a0 + u01 * a1;
    amps_[i1] = u10 * a0 + u11 * a1;
  }
}

void StateVector::apply_two_qubit(const ComplexMatrix& u, std::size_t q_low,
                                  std::size_t q_high) {
  check_qubit(q_low, "apply_two_qubit");
  check_qubit(q_high, "apply_two_qubit");
  QBARREN_REQUIRE(q_low != q_high, "apply_two_qubit: qubits must differ");
  QBARREN_REQUIRE(u.rows() == 4 && u.cols() == 4,
                  "apply_two_qubit: matrix must be 4x4");

  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  const std::size_t dim = amps_.size();

  Complex m[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m[r][c] = u.at_unchecked(r, c);
    }
  }

  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & bl) != 0 || (i & bh) != 0) continue;  // base of each 4-group
    const std::size_t idx[4] = {i, i | bl, i | bh, i | bl | bh};
    Complex in[4];
    for (std::size_t k = 0; k < 4; ++k) {
      in[k] = amps_[idx[k]];
    }
    for (std::size_t r = 0; r < 4; ++r) {
      Complex acc{0.0, 0.0};
      for (std::size_t c = 0; c < 4; ++c) {
        acc += m[r][c] * in[c];
      }
      amps_[idx[r]] = acc;
    }
  }
}

double StateVector::norm_squared() const {
  double acc = 0.0;
  for (const Complex& a : amps_) {
    acc += std::norm(a);
  }
  return acc;
}

void StateVector::normalize() {
  const double n2 = norm_squared();
  if (n2 <= 0.0) {
    throw NumericalError("StateVector::normalize: zero vector");
  }
  const double inv = 1.0 / std::sqrt(n2);
  for (Complex& a : amps_) {
    a *= inv;
  }
}

double StateVector::probability(std::size_t basis_index) const {
  QBARREN_REQUIRE(basis_index < amps_.size(),
                  "StateVector::probability: basis index out of range");
  return std::norm(amps_[basis_index]);
}

double StateVector::probability_one(std::size_t q) const {
  check_qubit(q, "probability_one");
  const std::size_t bit = std::size_t{1} << q;
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & bit) {
      acc += std::norm(amps_[i]);
    }
  }
  return acc;
}

Complex StateVector::inner_product(const StateVector& other) const {
  QBARREN_REQUIRE(amps_.size() == other.amps_.size(),
                  "inner_product: dimension mismatch");
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::conj(amps_[i]) * other.amps_[i];
  }
  return acc;
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

ComplexMatrix embed_single_qubit(const ComplexMatrix& u, std::size_t target,
                                 std::size_t num_qubits) {
  QBARREN_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "embed_single_qubit: matrix must be 2x2");
  QBARREN_REQUIRE(target < num_qubits,
                  "embed_single_qubit: target out of range");
  // kron builds from the most-significant factor down: qubit (n-1) is the
  // leftmost tensor factor.
  const ComplexMatrix id2 = ComplexMatrix::identity(2);
  ComplexMatrix out = ComplexMatrix::identity(1);
  for (std::size_t q = num_qubits; q-- > 0;) {
    out = kron(out, q == target ? u : id2);
  }
  return out;
}

ComplexMatrix embed_two_qubit(const ComplexMatrix& u, std::size_t q_low,
                              std::size_t q_high, std::size_t num_qubits) {
  QBARREN_REQUIRE(u.rows() == 4 && u.cols() == 4,
                  "embed_two_qubit: matrix must be 4x4");
  QBARREN_REQUIRE(q_low < num_qubits && q_high < num_qubits &&
                      q_low != q_high,
                  "embed_two_qubit: bad qubit pair");
  const std::size_t dim = std::size_t{1} << num_qubits;
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  ComplexMatrix out(dim, dim);
  for (std::size_t col = 0; col < dim; ++col) {
    const std::size_t in_pair =
        ((col & bl) ? 1u : 0u) | ((col & bh) ? 2u : 0u);
    const std::size_t base = col & ~(bl | bh);
    for (std::size_t out_pair = 0; out_pair < 4; ++out_pair) {
      const Complex v = u.at_unchecked(out_pair, in_pair);
      if (v == Complex{0.0, 0.0}) continue;
      const std::size_t row =
          base | ((out_pair & 1u) ? bl : 0u) | ((out_pair & 2u) ? bh : 0u);
      out.at_unchecked(row, col) = v;
    }
  }
  return out;
}

}  // namespace qbarren
