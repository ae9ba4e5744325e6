#include "qbarren/dsim/density_matrix.hpp"

#include <cmath>

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

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(num_qubits) {
  QBARREN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
                  "DensityMatrix: qubit count out of supported range");
  dim_ = std::size_t{1} << num_qubits;
  data_.assign(dim_ * dim_, Complex{0.0, 0.0});
  data_[0] = Complex{1.0, 0.0};
}

DensityMatrix DensityMatrix::pure(const StateVector& state) {
  DensityMatrix rho(state.num_qubits());
  const auto& amps = state.amplitudes();
  for (std::size_t r = 0; r < rho.dim_; ++r) {
    for (std::size_t c = 0; c < rho.dim_; ++c) {
      rho.data_[r * rho.dim_ + c] = amps[r] * std::conj(amps[c]);
    }
  }
  return rho;
}

Complex DensityMatrix::element(std::size_t row, std::size_t col) const {
  QBARREN_REQUIRE(row < dim_ && col < dim_,
                  "DensityMatrix::element: index out of range");
  return data_[row * dim_ + col];
}

void DensityMatrix::check_qubit(std::size_t q, const char* who) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(who) + ": qubit index out of range");
  }
}

void DensityMatrix::transform_rows_1q(const ComplexMatrix& m,
                                      std::size_t target) {
  const Complex m00 = m.at_unchecked(0, 0);
  const Complex m01 = m.at_unchecked(0, 1);
  const Complex m10 = m.at_unchecked(1, 0);
  const Complex m11 = m.at_unchecked(1, 1);
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t low_mask = bit - 1;
  for (std::size_t i = 0; i < dim_ / 2; ++i) {
    const std::size_t r0 = ((i & ~low_mask) << 1) | (i & low_mask);
    const std::size_t r1 = r0 | bit;
    Complex* row0 = data_.data() + r0 * dim_;
    Complex* row1 = data_.data() + r1 * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      const Complex a = row0[c];
      const Complex b = row1[c];
      row0[c] = m00 * a + m01 * b;
      row1[c] = m10 * a + m11 * b;
    }
  }
}

void DensityMatrix::transform_cols_1q(const ComplexMatrix& m,
                                      std::size_t target) {
  const Complex m00 = m.at_unchecked(0, 0);
  const Complex m01 = m.at_unchecked(0, 1);
  const Complex m10 = m.at_unchecked(1, 0);
  const Complex m11 = m.at_unchecked(1, 1);
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t low_mask = bit - 1;
  for (std::size_t r = 0; r < dim_; ++r) {
    Complex* row = data_.data() + r * dim_;
    for (std::size_t i = 0; i < dim_ / 2; ++i) {
      const std::size_t c0 = ((i & ~low_mask) << 1) | (i & low_mask);
      const std::size_t c1 = c0 | bit;
      const Complex a = row[c0];
      const Complex b = row[c1];
      row[c0] = m00 * a + m01 * b;
      row[c1] = m10 * a + m11 * b;
    }
  }
}

namespace {

ComplexMatrix conjugate_matrix(const ComplexMatrix& m) {
  ComplexMatrix out = m;
  for (auto& v : out.data()) {
    v = std::conj(v);
  }
  return out;
}

}  // namespace

void DensityMatrix::apply_unitary_1q(const ComplexMatrix& u,
                                     std::size_t target) {
  check_qubit(target, "apply_unitary_1q");
  QBARREN_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "apply_unitary_1q: matrix must be 2x2");
  transform_rows_1q(u, target);
  // rho U^dag: apply conj(U) over the column index.
  transform_cols_1q(conjugate_matrix(u), target);
}

void DensityMatrix::transform_rows_2q(const ComplexMatrix& m,
                                      std::size_t q_low, std::size_t q_high) {
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  Complex k[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      k[r][c] = m.at_unchecked(r, c);
    }
  }
  for (std::size_t base = 0; base < dim_; ++base) {
    if ((base & bl) != 0 || (base & bh) != 0) continue;
    const std::size_t rows[4] = {base, base | bl, base | bh, base | bl | bh};
    for (std::size_t c = 0; c < dim_; ++c) {
      Complex in[4];
      for (std::size_t x = 0; x < 4; ++x) {
        in[x] = data_[rows[x] * dim_ + c];
      }
      for (std::size_t x = 0; x < 4; ++x) {
        Complex acc{0.0, 0.0};
        for (std::size_t y = 0; y < 4; ++y) {
          acc += k[x][y] * in[y];
        }
        data_[rows[x] * dim_ + c] = acc;
      }
    }
  }
}

void DensityMatrix::transform_cols_2q(const ComplexMatrix& m,
                                      std::size_t q_low, std::size_t q_high) {
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  Complex k[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      k[r][c] = m.at_unchecked(r, c);
    }
  }
  for (std::size_t r = 0; r < dim_; ++r) {
    Complex* row = data_.data() + r * dim_;
    for (std::size_t base = 0; base < dim_; ++base) {
      if ((base & bl) != 0 || (base & bh) != 0) continue;
      const std::size_t cols[4] = {base, base | bl, base | bh,
                                   base | bl | bh};
      Complex in[4];
      for (std::size_t x = 0; x < 4; ++x) {
        in[x] = row[cols[x]];
      }
      for (std::size_t x = 0; x < 4; ++x) {
        Complex acc{0.0, 0.0};
        for (std::size_t y = 0; y < 4; ++y) {
          acc += k[x][y] * in[y];
        }
        row[cols[x]] = acc;
      }
    }
  }
}

void DensityMatrix::apply_unitary_2q(const ComplexMatrix& u,
                                     std::size_t q_low, std::size_t q_high) {
  check_qubit(q_low, "apply_unitary_2q");
  check_qubit(q_high, "apply_unitary_2q");
  QBARREN_REQUIRE(q_low != q_high, "apply_unitary_2q: qubits must differ");
  QBARREN_REQUIRE(u.rows() == 4 && u.cols() == 4,
                  "apply_unitary_2q: matrix must be 4x4");
  transform_rows_2q(u, q_low, q_high);
  transform_cols_2q(conjugate_matrix(u), q_low, q_high);
}

void DensityMatrix::apply_cz(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_cz");
  check_qubit(b, "apply_cz");
  QBARREN_REQUIRE(a != b, "apply_cz: qubits must differ");
  const std::size_t mask = (std::size_t{1} << a) | (std::size_t{1} << b);
  // CZ rho CZ: element (r, c) flips sign when exactly one of r, c has both
  // qubit bits set.
  for (std::size_t r = 0; r < dim_; ++r) {
    const bool row_flag = (r & mask) == mask;
    Complex* row = data_.data() + r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (row_flag != ((c & mask) == mask)) {
        row[c] = -row[c];
      }
    }
  }
}

void DensityMatrix::apply_channel_1q(const KrausChannel& channel,
                                     std::size_t target) {
  check_qubit(target, "apply_channel_1q");
  QBARREN_REQUIRE(channel.num_qubits() == 1,
                  "apply_channel_1q: channel is not single-qubit");
  std::vector<Complex> acc(data_.size(), Complex{0.0, 0.0});
  const std::vector<Complex> original = data_;
  for (const ComplexMatrix& k : channel.operators()) {
    data_ = original;
    transform_rows_1q(k, target);
    transform_cols_1q(conjugate_matrix(k), target);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += data_[i];
    }
  }
  data_ = std::move(acc);
}

void DensityMatrix::apply_channel_2q(const KrausChannel& channel,
                                     std::size_t q_low, std::size_t q_high) {
  check_qubit(q_low, "apply_channel_2q");
  check_qubit(q_high, "apply_channel_2q");
  QBARREN_REQUIRE(q_low != q_high, "apply_channel_2q: qubits must differ");
  QBARREN_REQUIRE(channel.num_qubits() == 2,
                  "apply_channel_2q: channel is not two-qubit");
  std::vector<Complex> acc(data_.size(), Complex{0.0, 0.0});
  const std::vector<Complex> original = data_;
  for (const ComplexMatrix& k : channel.operators()) {
    data_ = original;
    transform_rows_2q(k, q_low, q_high);
    transform_cols_2q(conjugate_matrix(k), q_low, q_high);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += data_[i];
    }
  }
  data_ = std::move(acc);
}

double DensityMatrix::trace() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    acc += data_[i * dim_ + i].real();
  }
  return acc;
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_{r,c} rho_rc * rho_cr = sum |rho_rc|^2 for Hermitian rho.
  double acc = 0.0;
  for (const Complex& v : data_) {
    acc += std::norm(v);
  }
  return acc;
}

double DensityMatrix::probability(std::size_t basis_index) const {
  QBARREN_REQUIRE(basis_index < dim_,
                  "DensityMatrix::probability: index out of range");
  return data_[basis_index * dim_ + basis_index].real();
}

double DensityMatrix::expectation(const Observable& observable) const {
  QBARREN_REQUIRE(observable.num_qubits() == num_qubits_,
                  "DensityMatrix::expectation: width mismatch");
  // tr(H rho) = sum_j (H * rho e_j)_j.
  double acc = 0.0;
  std::vector<Complex> column(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    for (std::size_t r = 0; r < dim_; ++r) {
      column[r] = data_[r * dim_ + j];
    }
    const StateVector col_state(num_qubits_, column);
    const StateVector h_col = observable.apply(col_state);
    acc += h_col.amplitude(j).real();
  }
  return acc;
}

double DensityMatrix::hermiticity_error() const {
  double worst = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      worst = std::max(worst, std::abs(data_[r * dim_ + c] -
                                       std::conj(data_[c * dim_ + r])));
    }
  }
  return worst;
}

}  // namespace qbarren
