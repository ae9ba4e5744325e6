#include "qbarren/qsim/gates.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace qbarren::gates {

namespace {
constexpr Complex kI{0.0, 1.0};

ComplexMatrix make2(Complex a, Complex b, Complex c, Complex d) {
  return ComplexMatrix(2, 2, {a, b, c, d});
}
}  // namespace

const ComplexMatrix& identity2() {
  static const ComplexMatrix m = make2(1, 0, 0, 1);
  return m;
}

const ComplexMatrix& pauli_x() {
  static const ComplexMatrix m = make2(0, 1, 1, 0);
  return m;
}

const ComplexMatrix& pauli_y() {
  static const ComplexMatrix m = make2(0, -kI, kI, 0);
  return m;
}

const ComplexMatrix& pauli_z() {
  static const ComplexMatrix m = make2(1, 0, 0, -1);
  return m;
}

const ComplexMatrix& hadamard() {
  static const ComplexMatrix m = [] {
    const double s = 1.0 / std::sqrt(2.0);
    return make2(s, s, s, -s);
  }();
  return m;
}

const ComplexMatrix& s_gate() {
  static const ComplexMatrix m = make2(1, 0, 0, kI);
  return m;
}

const ComplexMatrix& t_gate() {
  static const ComplexMatrix m = make2(1, 0, 0, std::exp(kI * (M_PI / 4.0)));
  return m;
}

namespace {
Mat2 rx_entries(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {c, -kI * s, -kI * s, c};
}

Mat2 ry_entries(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {c, -s, s, c};
}

Mat2 rz_entries(double theta) {
  return {std::exp(-kI * (theta / 2.0)), 0.0, 0.0,
          std::exp(kI * (theta / 2.0))};
}
}  // namespace

ComplexMatrix rx(double theta) {
  const Mat2 e = rx_entries(theta);
  return make2(e.m00, e.m01, e.m10, e.m11);
}

ComplexMatrix ry(double theta) {
  const Mat2 e = ry_entries(theta);
  return make2(e.m00, e.m01, e.m10, e.m11);
}

ComplexMatrix rz(double theta) {
  const Mat2 e = rz_entries(theta);
  return make2(e.m00, e.m01, e.m10, e.m11);
}

ComplexMatrix phase(double theta) {
  return make2(1, 0, 0, std::exp(kI * theta));
}

ComplexMatrix u3(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return make2(c, -std::exp(kI * lambda) * s, std::exp(kI * phi) * s,
               std::exp(kI * (phi + lambda)) * c);
}

const ComplexMatrix& cz() {
  static const ComplexMatrix cached = [] {
    ComplexMatrix m = ComplexMatrix::identity(4);
    m(3, 3) = -1.0;
    return m;
  }();
  return cached;
}

const ComplexMatrix& cnot() {
  // Control = low-order qubit (bit 0), target = bit 1: basis order
  // |q1 q0> = 00,01,10,11 -> flips target when bit 0 is set.
  static const ComplexMatrix cached = [] {
    ComplexMatrix m(4, 4);
    m(0, 0) = 1.0;
    m(3, 1) = 1.0;
    m(2, 2) = 1.0;
    m(1, 3) = 1.0;
    return m;
  }();
  return cached;
}

const ComplexMatrix& swap() {
  static const ComplexMatrix cached = [] {
    ComplexMatrix m(4, 4);
    m(0, 0) = 1.0;
    m(2, 1) = 1.0;
    m(1, 2) = 1.0;
    m(3, 3) = 1.0;
    return m;
  }();
  return cached;
}

ComplexMatrix crz(double theta) {
  // Control = low-order qubit: rows/cols ordered |q1 q0>.
  ComplexMatrix m = ComplexMatrix::identity(4);
  m(1, 1) = std::exp(-kI * (theta / 2.0));
  m(3, 3) = std::exp(kI * (theta / 2.0));
  return m;
}

ComplexMatrix pauli(Axis axis) {
  switch (axis) {
    case Axis::kX:
      return pauli_x();
    case Axis::kY:
      return pauli_y();
    case Axis::kZ:
      return pauli_z();
  }
  throw InvalidArgument("pauli: invalid axis");
}

ComplexMatrix rotation(Axis axis, double theta) {
  switch (axis) {
    case Axis::kX:
      return rx(theta);
    case Axis::kY:
      return ry(theta);
    case Axis::kZ:
      return rz(theta);
  }
  throw InvalidArgument("rotation: invalid axis");
}

ComplexMatrix rotation_derivative(Axis axis, double theta) {
  const ComplexMatrix r = rotation(axis, theta);
  const ComplexMatrix p = pauli(axis);
  return (Complex(0.0, -0.5)) * (p * r);
}

Mat2 rotation_entries(Axis axis, double theta) {
  switch (axis) {
    case Axis::kX:
      return rx_entries(theta);
    case Axis::kY:
      return ry_entries(theta);
    case Axis::kZ:
      return rz_entries(theta);
  }
  throw InvalidArgument("rotation_entries: invalid axis");
}

Mat2 rotation_derivative_entries(Axis axis, double theta) {
  return rotation_derivative_entries_from(axis, rotation_entries(axis, theta));
}

Mat2 rotation_derivative_entries_from(Axis axis, const Mat2& r) {
  // Mirrors rotation_derivative() term by term: (-i/2) * (P * R) with the
  // dense matmul's accumulation semantics (zero Pauli entries skipped, the
  // accumulator starting from Complex{}), so the values are exactly the
  // ones rotation_derivative() computes.
  const Complex k{0.0, -0.5};
  const Complex zero{};
  switch (axis) {
    case Axis::kX: {
      const Complex one{1.0, 0.0};
      return {k * (zero + one * r.m10), k * (zero + one * r.m11),
              k * (zero + one * r.m00), k * (zero + one * r.m01)};
    }
    case Axis::kY: {
      const Complex lo = -kI;  // P(0,1), same expression pauli_y() stores
      const Complex hi = kI;   // P(1,0)
      return {k * (zero + lo * r.m10), k * (zero + lo * r.m11),
              k * (zero + hi * r.m00), k * (zero + hi * r.m01)};
    }
    case Axis::kZ: {
      const Complex one{1.0, 0.0};
      const Complex neg{-1.0, 0.0};
      return {k * (zero + one * r.m00), k * (zero + one * r.m01),
              k * (zero + neg * r.m10), k * (zero + neg * r.m11)};
    }
  }
  throw InvalidArgument("rotation_derivative_entries_from: invalid axis");
}

Mat2 entries_of(const ComplexMatrix& m) {
  QBARREN_REQUIRE(m.rows() == 2 && m.cols() == 2,
                  "entries_of: matrix must be 2x2");
  return {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
}

std::string axis_name(Axis axis) {
  switch (axis) {
    case Axis::kX:
      return "RX";
    case Axis::kY:
      return "RY";
    case Axis::kZ:
      return "RZ";
  }
  return "R?";
}

Axis axis_from_name(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char ch) { return std::toupper(ch); });
  if (upper == "RX" || upper == "X") return Axis::kX;
  if (upper == "RY" || upper == "Y") return Axis::kY;
  if (upper == "RZ" || upper == "Z") return Axis::kZ;
  throw NotFound("axis_from_name: unknown rotation axis '" + name + "'");
}

}  // namespace qbarren::gates
