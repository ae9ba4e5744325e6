// Gate matrix library.
//
// All single-qubit rotation gates follow the physics convention
//   R_P(theta) = exp(-i * theta * P / 2),
// which is what PennyLane uses and what the parameter-shift rule
//   dC/dtheta = (C(theta + pi/2) - C(theta - pi/2)) / 2
// assumes. Qubit 0 is the least-significant bit of the basis index; for
// two-qubit matrices the first listed qubit is the low-order index bit.
#pragma once

#include <string>

#include "qbarren/linalg/matrix.hpp"

namespace qbarren::gates {

// --- fixed single-qubit gates -------------------------------------------
// Constant gates are immutable; each helper returns a reference to a
// function-local static built on first use (thread-safe), so hot loops
// that fetch them per application no longer heap-allocate a fresh matrix.

[[nodiscard]] const ComplexMatrix& identity2();
[[nodiscard]] const ComplexMatrix& pauli_x();
[[nodiscard]] const ComplexMatrix& pauli_y();
[[nodiscard]] const ComplexMatrix& pauli_z();
[[nodiscard]] const ComplexMatrix& hadamard();
[[nodiscard]] const ComplexMatrix& s_gate();   ///< sqrt(Z), diag(1, i)
[[nodiscard]] const ComplexMatrix& t_gate();   ///< diag(1, e^{i pi/4})

// --- parameterized single-qubit gates ------------------------------------

[[nodiscard]] ComplexMatrix rx(double theta);
[[nodiscard]] ComplexMatrix ry(double theta);
[[nodiscard]] ComplexMatrix rz(double theta);
/// General single-qubit rotation U3(theta, phi, lambda) (OpenQASM
/// convention).
[[nodiscard]] ComplexMatrix u3(double theta, double phi, double lambda);

// --- two-qubit gates ------------------------------------------------------
// The constant two-qubit gates are cached the same way as the constant
// single-qubit gates above.

[[nodiscard]] const ComplexMatrix& cz();     ///< controlled-Z (symmetric)
[[nodiscard]] const ComplexMatrix& cnot();   ///< control = low-order qubit
[[nodiscard]] const ComplexMatrix& swap();
[[nodiscard]] ComplexMatrix crz(double theta);  ///< controlled RZ

// --- generators -----------------------------------------------------------

/// The rotation axes supported by parameterized rotations. A rotation gate
/// R_P(theta) has generator P/2, i.e. dR/dtheta = (-i/2) P R.
enum class Axis { kX, kY, kZ };

/// Pauli matrix for an axis.
[[nodiscard]] ComplexMatrix pauli(Axis axis);

/// Rotation about an axis: rx/ry/rz dispatch.
[[nodiscard]] ComplexMatrix rotation(Axis axis, double theta);

/// Derivative of the rotation matrix: dR_P(theta)/dtheta = (-i/2) P R_P.
[[nodiscard]] ComplexMatrix rotation_derivative(Axis axis, double theta);

// --- stack-held gate entries ----------------------------------------------
// A 2x2 matrix by value (no heap), row-major. The entry helpers below are
// the single arithmetic source for both the heap-matrix builders above and
// the exec layer's allocation-free kernels: `rotation()` is implemented on
// top of `rotation_entries()`, so compiled execution and the dense
// matrices (Circuit::unitary, the noisy simulator) see exactly the same
// floating-point values.

struct Mat2 {
  Complex m00, m01, m10, m11;
};

/// Entries of rotation(axis, theta), without allocating.
[[nodiscard]] Mat2 rotation_entries(Axis axis, double theta);

/// Entries of rotation_derivative(axis, theta), without allocating.
/// Replicates the dense-matmul accumulation semantics of the matrix path.
[[nodiscard]] Mat2 rotation_derivative_entries(Axis axis, double theta);

/// Same derivative entries, but from already-computed rotation_entries()
/// output for the same (axis, theta) — skips recomputing the trig.
[[nodiscard]] Mat2 rotation_derivative_entries_from(Axis axis, const Mat2& r);

/// Entries of a 2x2 ComplexMatrix; throws InvalidArgument otherwise.
[[nodiscard]] Mat2 entries_of(const ComplexMatrix& m);

/// Human-readable axis name ("RX"/"RY"/"RZ").
[[nodiscard]] std::string axis_name(Axis axis);

/// Parses "RX"/"RY"/"RZ" (case-insensitive); throws NotFound otherwise.
[[nodiscard]] Axis axis_from_name(const std::string& name);

}  // namespace qbarren::gates
