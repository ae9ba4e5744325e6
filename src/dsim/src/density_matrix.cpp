#include "qbarren/dsim/density_matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "qbarren/exec/kernels.hpp"
#include "qbarren/linalg/checks.hpp"

namespace qbarren {

namespace {
constexpr std::size_t kMaxQubits = 10;
}  // namespace

KrausChannel::KrausChannel(std::vector<ComplexMatrix> operators,
                           std::string name)
    : operators_(std::move(operators)), name_(std::move(name)) {
  QBARREN_REQUIRE(!operators_.empty(), "KrausChannel: no operators");
  const std::size_t dim = operators_.front().rows();
  QBARREN_REQUIRE(dim == 2 || dim == 4,
                  "KrausChannel: operators must be 2x2 or 4x4");
  qubits_ = (dim == 2) ? 1 : 2;
  ComplexMatrix completeness(dim, dim);
  for (const ComplexMatrix& k : operators_) {
    QBARREN_REQUIRE(k.rows() == dim && k.cols() == dim,
                    "KrausChannel: inconsistent operator shapes");
    completeness = completeness + adjoint(k) * k;
  }
  QBARREN_REQUIRE(
      max_abs_diff(completeness, ComplexMatrix::identity(dim)) < 1e-10,
      "KrausChannel: operators do not satisfy sum K^dag K = I");
}

namespace {

std::size_t checked_qubits(std::size_t num_qubits) {
  QBARREN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
                  "DensityMatrix: qubit count out of supported range");
  return num_qubits;
}

// rho <- M rho M^dag on rho's 2n-qubit vector: M over the row index (row
// bit q is flat bit q + n), then conj(M) over the column index (bit q).

void conjugate_1q(StateVector& rho, std::size_t n, const ComplexMatrix& m,
                  std::size_t q) {
  const gates::Mat2 e = gates::entries_of(m);
  exec::apply_mat2(rho, e, q + n);
  exec::apply_mat2(rho,
                   {std::conj(e.m00), std::conj(e.m01), std::conj(e.m10),
                    std::conj(e.m11)},
                   q);
}

/// `m` is 4x4 (checked by the callers): its 16 row-major entries are what
/// apply_mat4_from reads.
void conjugate_2q(StateVector& rho, std::size_t n, const ComplexMatrix& m,
                  std::size_t q_low, std::size_t q_high) {
  const std::span<const Complex, 16> e(m.data().data(), 16);
  exec::apply_mat4_from(rho, rho, e, q_low + n, q_high + n);
  std::array<Complex, 16> conj_e;
  std::transform(e.begin(), e.end(), conj_e.begin(),
                 [](const Complex& v) { return std::conj(v); });
  exec::apply_mat4_from(rho, rho, conj_e, q_low, q_high);
}

/// rho <- sum_k K rho K^dag, `conjugate(term, K)` conjugating a copy of rho
/// by each operator in turn.
template <class Conjugate>
void apply_kraus(StateVector& rho, const KrausChannel& channel,
                 Conjugate&& conjugate) {
  const StateVector original = rho;
  std::vector<Complex> acc(rho.dimension(), Complex{0.0, 0.0});
  for (const ComplexMatrix& k : channel.operators()) {
    rho = original;
    conjugate(rho, k);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += rho.amplitudes()[i];
    }
  }
  rho.amplitudes() = std::move(acc);
}

}  // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(checked_qubits(num_qubits)),
      dim_(std::size_t{1} << num_qubits),
      data_(2 * num_qubits) {}

DensityMatrix DensityMatrix::pure(const StateVector& state) {
  DensityMatrix rho(state.num_qubits());
  const auto& amps = state.amplitudes();
  auto& data = rho.data_.amplitudes();
  for (std::size_t r = 0; r < rho.dim_; ++r) {
    for (std::size_t c = 0; c < rho.dim_; ++c) {
      data[r * rho.dim_ + c] = amps[r] * std::conj(amps[c]);
    }
  }
  return rho;
}

Complex DensityMatrix::element(std::size_t row, std::size_t col) const {
  QBARREN_REQUIRE(row < dim_ && col < dim_,
                  "DensityMatrix::element: index out of range");
  return data_.amplitudes()[row * dim_ + col];
}

void DensityMatrix::check_qubit(std::size_t q, const char* who) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(who) + ": qubit index out of range");
  }
}

void DensityMatrix::apply_unitary_1q(const ComplexMatrix& u,
                                     std::size_t target) {
  check_qubit(target, "apply_unitary_1q");
  QBARREN_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "apply_unitary_1q: matrix must be 2x2");
  conjugate_1q(data_, num_qubits_, u, target);
}

void DensityMatrix::apply_unitary_2q(const ComplexMatrix& u,
                                     std::size_t q_low, std::size_t q_high) {
  check_qubit(q_low, "apply_unitary_2q");
  check_qubit(q_high, "apply_unitary_2q");
  QBARREN_REQUIRE(q_low != q_high, "apply_unitary_2q: qubits must differ");
  QBARREN_REQUIRE(u.rows() == 4 && u.cols() == 4,
                  "apply_unitary_2q: matrix must be 4x4");
  conjugate_2q(data_, num_qubits_, u, q_low, q_high);
}

void DensityMatrix::apply_cz(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_cz");
  check_qubit(b, "apply_cz");
  QBARREN_REQUIRE(a != b, "apply_cz: qubits must differ");
  // CZ rho CZ: negate the rows, then the columns, with both qubit bits set;
  // where both are set the two negations cancel exactly.
  exec::apply_cz(data_, a + num_qubits_, b + num_qubits_);
  exec::apply_cz(data_, a, b);
}

void DensityMatrix::apply_channel_1q(const KrausChannel& channel,
                                     std::size_t target) {
  check_qubit(target, "apply_channel_1q");
  QBARREN_REQUIRE(channel.num_qubits() == 1,
                  "apply_channel_1q: channel is not single-qubit");
  apply_kraus(data_, channel, [&](StateVector& rho, const ComplexMatrix& k) {
    conjugate_1q(rho, num_qubits_, k, target);
  });
}

void DensityMatrix::apply_channel_2q(const KrausChannel& channel,
                                     std::size_t q_low, std::size_t q_high) {
  check_qubit(q_low, "apply_channel_2q");
  check_qubit(q_high, "apply_channel_2q");
  QBARREN_REQUIRE(q_low != q_high, "apply_channel_2q: qubits must differ");
  QBARREN_REQUIRE(channel.num_qubits() == 2,
                  "apply_channel_2q: channel is not two-qubit");
  apply_kraus(data_, channel, [&](StateVector& rho, const ComplexMatrix& k) {
    conjugate_2q(rho, num_qubits_, k, q_low, q_high);
  });
}

double DensityMatrix::trace() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    acc += data_.amplitudes()[i * dim_ + i].real();
  }
  return acc;
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_{r,c} rho_rc * rho_cr = sum |rho_rc|^2 for Hermitian rho.
  double acc = 0.0;
  for (const Complex& v : data_.amplitudes()) {
    acc += std::norm(v);
  }
  return acc;
}

double DensityMatrix::probability(std::size_t basis_index) const {
  QBARREN_REQUIRE(basis_index < dim_,
                  "DensityMatrix::probability: index out of range");
  return data_.amplitudes()[basis_index * dim_ + basis_index].real();
}

double DensityMatrix::expectation(const Observable& observable) const {
  QBARREN_REQUIRE(observable.num_qubits() == num_qubits_,
                  "DensityMatrix::expectation: width mismatch");
  // tr(H rho) = sum_j (H * rho e_j)_j.
  double acc = 0.0;
  std::vector<Complex> column(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    for (std::size_t r = 0; r < dim_; ++r) {
      column[r] = data_.amplitudes()[r * dim_ + j];
    }
    const StateVector col_state(num_qubits_, column);
    const StateVector h_col = observable.apply(col_state);
    acc += h_col.amplitude(j).real();
  }
  return acc;
}

double DensityMatrix::hermiticity_error() const {
  const auto& d = data_.amplitudes();
  double worst = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      worst = std::max(worst,
                       std::abs(d[r * dim_ + c] - std::conj(d[c * dim_ + r])));
    }
  }
  return worst;
}

}  // namespace qbarren
