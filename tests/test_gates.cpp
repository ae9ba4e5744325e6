// Unit and property tests for the gate matrix library.
#include "qbarren/qsim/gates.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

using gates::Axis;

constexpr double kTol = 1e-12;

void expect_matrix_near(const ComplexMatrix& a, const ComplexMatrix& b,
                        double tol = kTol) {
  EXPECT_LT(max_abs_diff(a, b), tol);
}

TEST(Gates, PauliMatricesSquareToIdentity) {
  expect_matrix_near(gates::pauli_x() * gates::pauli_x(), gates::identity2());
  expect_matrix_near(gates::pauli_y() * gates::pauli_y(), gates::identity2());
  expect_matrix_near(gates::pauli_z() * gates::pauli_z(), gates::identity2());
}

TEST(Gates, PauliAnticommutation) {
  // XY = iZ.
  const ComplexMatrix xy = gates::pauli_x() * gates::pauli_y();
  const ComplexMatrix iz = Complex{0.0, 1.0} * gates::pauli_z();
  expect_matrix_near(xy, iz);
}

TEST(Gates, HadamardConjugatesXToZ) {
  const ComplexMatrix h = gates::hadamard();
  expect_matrix_near(h * gates::pauli_x() * h, gates::pauli_z());
  expect_matrix_near(h * h, gates::identity2());
}

TEST(Gates, SAndTGates) {
  // S^2 = Z, T^2 = S.
  expect_matrix_near(gates::s_gate() * gates::s_gate(), gates::pauli_z());
  expect_matrix_near(gates::t_gate() * gates::t_gate(), gates::s_gate());
}

TEST(Gates, RotationAtZeroIsIdentity) {
  expect_matrix_near(gates::rx(0.0), gates::identity2());
  expect_matrix_near(gates::ry(0.0), gates::identity2());
  expect_matrix_near(gates::rz(0.0), gates::identity2());
}

TEST(Gates, RotationAtPiEqualsPauliUpToPhase) {
  // R_P(pi) = -i P.
  const Complex minus_i{0.0, -1.0};
  expect_matrix_near(gates::rx(M_PI), minus_i * gates::pauli_x());
  expect_matrix_near(gates::ry(M_PI), minus_i * gates::pauli_y());
  expect_matrix_near(gates::rz(M_PI), minus_i * gates::pauli_z());
}

TEST(Gates, RotationAt2PiIsMinusIdentity) {
  // Spinor double cover: R_P(2 pi) = -I.
  const ComplexMatrix minus_id = Complex{-1.0, 0.0} * gates::identity2();
  expect_matrix_near(gates::rx(2.0 * M_PI), minus_id);
  expect_matrix_near(gates::ry(2.0 * M_PI), minus_id);
  expect_matrix_near(gates::rz(2.0 * M_PI), minus_id);
}

TEST(Gates, RotationsCompose) {
  // R_P(a) R_P(b) = R_P(a + b).
  expect_matrix_near(gates::rx(0.3) * gates::rx(0.4), gates::rx(0.7));
  expect_matrix_near(gates::ry(1.1) * gates::ry(-0.2), gates::ry(0.9));
  expect_matrix_near(gates::rz(0.5) * gates::rz(0.5), gates::rz(1.0));
}

TEST(Gates, RyKnownValues) {
  const ComplexMatrix r = gates::ry(M_PI / 2.0);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(r(0, 0).real(), s, kTol);
  EXPECT_NEAR(r(0, 1).real(), -s, kTol);
  EXPECT_NEAR(r(1, 0).real(), s, kTol);
  EXPECT_NEAR(r(1, 1).real(), s, kTol);
}

TEST(Gates, U3ReducesToRy) {
  // U3(theta, 0, 0) = RY(theta).
  expect_matrix_near(gates::u3(0.7, 0.0, 0.0), gates::ry(0.7));
}

TEST(Gates, CzIsSymmetricDiagonal) {
  const ComplexMatrix cz = gates::cz();
  EXPECT_TRUE(is_unitary(cz));
  EXPECT_TRUE(is_hermitian(cz));
  EXPECT_EQ(cz(3, 3), (Complex{-1.0, 0.0}));
  EXPECT_EQ(cz(0, 0), (Complex{1.0, 0.0}));
}

TEST(Gates, CnotMapsBasisStates) {
  // Control = bit 0: |q1 q0> = |01> (index 1) -> |11> (index 3).
  const ComplexMatrix cx = gates::cnot();
  EXPECT_EQ(cx(3, 1), (Complex{1.0, 0.0}));
  EXPECT_EQ(cx(1, 3), (Complex{1.0, 0.0}));
  EXPECT_EQ(cx(0, 0), (Complex{1.0, 0.0}));
  EXPECT_EQ(cx(2, 2), (Complex{1.0, 0.0}));
  EXPECT_TRUE(is_unitary(cx));
}

TEST(Gates, SwapExchangesMiddleStates) {
  const ComplexMatrix sw = gates::swap();
  EXPECT_EQ(sw(1, 2), (Complex{1.0, 0.0}));
  EXPECT_EQ(sw(2, 1), (Complex{1.0, 0.0}));
  EXPECT_TRUE(is_unitary(sw));
}

TEST(Gates, CrzControlledOnLowBit) {
  const ComplexMatrix m = gates::crz(0.8);
  EXPECT_TRUE(is_unitary(m));
  // Control clear (indices 0, 2): identity.
  EXPECT_EQ(m(0, 0), (Complex{1.0, 0.0}));
  EXPECT_EQ(m(2, 2), (Complex{1.0, 0.0}));
  // Control set: RZ phases.
  EXPECT_NEAR(std::arg(m(1, 1)), -0.4, kTol);
  EXPECT_NEAR(std::arg(m(3, 3)), 0.4, kTol);
}

TEST(Gates, RotationDerivativeMatchesFiniteDifference) {
  const double theta = 0.37;
  const double h = 1e-7;
  for (const Axis axis : {Axis::kX, Axis::kY, Axis::kZ}) {
    const ComplexMatrix d = gates::rotation_derivative(axis, theta);
    const ComplexMatrix fd =
        Complex{1.0 / (2.0 * h), 0.0} *
        (gates::rotation(axis, theta + h) - gates::rotation(axis, theta - h));
    EXPECT_LT(max_abs_diff(d, fd), 1e-7);
  }
}

TEST(Gates, AxisNamesRoundTrip) {
  EXPECT_EQ(gates::axis_name(Axis::kX), "RX");
  EXPECT_EQ(gates::axis_name(Axis::kY), "RY");
  EXPECT_EQ(gates::axis_name(Axis::kZ), "RZ");
  EXPECT_EQ(gates::axis_from_name("RX"), Axis::kX);
  EXPECT_EQ(gates::axis_from_name("ry"), Axis::kY);
  EXPECT_EQ(gates::axis_from_name("Z"), Axis::kZ);
  EXPECT_THROW((void)gates::axis_from_name("RW"), NotFound);
}

// Property sweep: every parameterized gate is unitary at every angle, and
// the adjoint equals the rotation at the negated angle.
class RotationProperties : public ::testing::TestWithParam<double> {};

TEST_P(RotationProperties, UnitaryAtAllAngles) {
  const double theta = GetParam();
  for (const Axis axis : {Axis::kX, Axis::kY, Axis::kZ}) {
    EXPECT_TRUE(is_unitary(gates::rotation(axis, theta)))
        << gates::axis_name(axis) << "(" << theta << ")";
  }
  EXPECT_TRUE(is_unitary(gates::u3(theta, 0.4, -1.2)));
  EXPECT_TRUE(is_unitary(gates::crz(theta)));
}

TEST_P(RotationProperties, AdjointIsNegatedAngle) {
  const double theta = GetParam();
  for (const Axis axis : {Axis::kX, Axis::kY, Axis::kZ}) {
    expect_matrix_near(adjoint(gates::rotation(axis, theta)),
                       gates::rotation(axis, -theta));
  }
}

TEST_P(RotationProperties, GeneratorRelationHolds) {
  // dR/dtheta = (-i/2) P R must itself satisfy dR * R^dag = (-i/2) P.
  const double theta = GetParam();
  for (const Axis axis : {Axis::kX, Axis::kY, Axis::kZ}) {
    const ComplexMatrix lhs = gates::rotation_derivative(axis, theta) *
                              adjoint(gates::rotation(axis, theta));
    const ComplexMatrix rhs = Complex{0.0, -0.5} * gates::pauli(axis);
    expect_matrix_near(lhs, rhs, 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, RotationProperties,
                         ::testing::Values(-7.0, -M_PI, -0.5, 0.0, 1e-8, 0.3,
                                           M_PI / 2.0, M_PI, 2.2, 6.9));

}  // namespace
}  // namespace qbarren
