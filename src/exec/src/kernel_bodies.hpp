// Branch-free complex arithmetic and the amplitude-pair bodies shared by
// the serial (kernels.cpp) and batched (batched_kernels.cpp) executors.
// Internal to src/exec: every 2x2 update either executor performs is one
// of the bodies below, so the two paths cannot drift apart.
//
// Arithmetic contract:
//
// * cmul is the naive component formula (ac - bd, ad + bc). For finite
//   operands it equals the std::complex product exactly: GCC's inlined
//   multiply computes the same scalar products in the same order and only
//   diverges through its NaN fixup (__muldc3), which never fires on the
//   finite amplitudes and gate entries a valid simulation produces. Doing
//   the products on plain doubles drops that per-product compare-and-branch
//   from the hot loops.
//
// * The axis-specialised rotation bodies (RX, RY, RZ) skip the products
//   with the entry components that are exact zeros in every rotation
//   matrix (and in its derivative, (-i/2) P R). A skipped product is a
//   signed zero; adding a signed zero to a nonzero value returns that
//   value unchanged, and a sum of zeros is a zero. So a specialised body
//   returns the generic 2x2 result on every nonzero component and can
//   differ only in the sign of a zero. Signed zeros never reach reported
//   results (expectations and inner products accumulate from +0, which no
//   zero addend can turn into -0), which is why this needs no numerics or
//   fingerprint bump.
#pragma once

#include <cstddef>
#include <cstdint>

#include "qbarren/qsim/gates.hpp"

namespace qbarren::exec::detail {

/// One complex value held as two scalars, for branch-free products.
struct RawC {
  double re;
  double im;
};

inline RawC raw(const Complex& c) { return RawC{c.real(), c.imag()}; }

inline Complex pack(RawC a) { return Complex{a.re, a.im}; }

/// a * b by the naive formula: same scalar products, same summation order
/// as the inlined finite-path std::complex multiply.
inline RawC cmul(RawC a, RawC b) {
  return RawC{a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

inline RawC cadd(RawC a, RawC b) { return RawC{a.re + b.re, a.im + b.im}; }

inline RawC conj(RawC a) { return RawC{a.re, -a.im}; }

/// u0*a0 + u1*a1 with the std::complex kernels' operand order.
inline RawC mat2_row(RawC u0, RawC u1, RawC a0, RawC a1) {
  return cadd(cmul(u0, a0), cmul(u1, a1));
}

// --- pair bodies -------------------------------------------------------------
//
// A body maps an amplitude pair in place: (a0, a1) <- U (a0, a1), where a0
// has the target bit clear and a1 has it set.

/// Any 2x2: four complex products and two adds, 28 flops per pair.
struct Mat2Body {
  RawC u00, u01, u10, u11;

  explicit Mat2Body(const gates::Mat2& u)
      : u00(raw(u.m00)), u01(raw(u.m01)), u10(raw(u.m10)), u11(raw(u.m11)) {}

  void operator()(RawC& a0, RawC& a1) const {
    const RawC b0 = mat2_row(u00, u01, a0, a1);
    a1 = mat2_row(u10, u11, a0, a1);
    a0 = b0;
  }
};

/// RX shape [[c, -is], [-is, c]]: real diagonal, imaginary off-diagonal
/// (also the shape of RX's derivative). 12 flops per pair.
struct RxBody {
  double d0, o01, o10, d1;  // m00.re, m01.im, m10.im, m11.re

  explicit RxBody(const gates::Mat2& u)
      : d0(u.m00.real()),
        o01(u.m01.imag()),
        o10(u.m10.imag()),
        d1(u.m11.real()) {}

  void operator()(RawC& a0, RawC& a1) const {
    const RawC b0{d0 * a0.re - o01 * a1.im, d0 * a0.im + o01 * a1.re};
    a1 = RawC{d1 * a1.re - o10 * a0.im, d1 * a1.im + o10 * a0.re};
    a0 = b0;
  }
};

/// RY shape [[c, -s], [s, c]]: every entry real (also the shape of RY's
/// derivative). 12 flops per pair.
struct RyBody {
  double d0, o01, o10, d1;  // real parts of m00, m01, m10, m11

  explicit RyBody(const gates::Mat2& u)
      : d0(u.m00.real()),
        o01(u.m01.real()),
        o10(u.m10.real()),
        d1(u.m11.real()) {}

  void operator()(RawC& a0, RawC& a1) const {
    const RawC b0{d0 * a0.re + o01 * a1.re, d0 * a0.im + o01 * a1.im};
    a1 = RawC{o10 * a0.re + d1 * a1.re, o10 * a0.im + d1 * a1.im};
    a0 = b0;
  }
};

/// RZ shape diag(e^{-i theta/2}, e^{i theta/2}): exact-zero off-diagonal
/// (also the shape of RZ's derivative). 12 flops per pair.
struct RzBody {
  RawC u00, u11;

  explicit RzBody(const gates::Mat2& u) : u00(raw(u.m00)), u11(raw(u.m11)) {}

  void operator()(RawC& a0, RawC& a1) const {
    a0 = cmul(u00, a0);
    a1 = cmul(u11, a1);
  }
};

/// `first` then `second` on the same pair, kept in registers in between.
template <class First, class Second>
struct PairBody {
  First first;
  Second second;

  void operator()(RawC& a0, RawC& a1) const {
    first(a0, a1);
    second(a0, a1);
  }
};

/// A fused constant run: pool[indices[0]], pool[indices[1]], ... (in
/// reverse index order when `reverse`) on the same pair, kept in registers
/// between gates.
struct RunBody {
  const gates::Mat2* pool;
  const std::uint32_t* indices;
  std::size_t count;
  bool reverse;

  void operator()(RawC& a0, RawC& a1) const {
    for (std::size_t j = 0; j < count; ++j) {
      const Mat2Body body(pool[indices[reverse ? count - 1 - j : j]]);
      body(a0, a1);
    }
  }
};

/// Calls f(body) with the body specialised for `axis`, built from `u`
/// (rotation entries of that axis, or their derivative).
template <class F>
inline void with_rotation_body(gates::Axis axis, const gates::Mat2& u,
                               F&& f) {
  switch (axis) {
    case gates::Axis::kX:
      f(RxBody(u));
      return;
    case gates::Axis::kY:
      f(RyBody(u));
      return;
    case gates::Axis::kZ:
      f(RzBody(u));
      return;
  }
}

// --- pair loops --------------------------------------------------------------

/// Calls f(i0, i1) for every amplitude pair of `target` in [0, dim),
/// i0 with the target bit clear and i1 = i0 with it set, block by block:
/// each block of 2*bit indices is a contiguous bit-clear run followed by
/// its bit-set partner run, so the inner loop is affine in i0. Pairs are
/// independent, so the enumeration order never changes a value.
template <class F>
inline void for_each_pair_index(std::size_t dim, std::size_t target, F&& f) {
  const std::size_t bit = std::size_t{1} << target;
  for (std::size_t base = 0; base < dim; base += 2 * bit) {
    for (std::size_t i0 = base; i0 < base + bit; ++i0) {
      f(i0, i0 + bit);
    }
  }
}

/// Applies `body` to every `target` pair of amps[0, dim). The body is
/// taken by value so its entries stay in registers: a reference could
/// alias the amplitudes as far as the compiler knows.
template <class Body>
inline void for_each_pair(Complex* amps, std::size_t dim, std::size_t target,
                          const Body body) {
  for_each_pair_index(dim, target, [&](std::size_t i0, std::size_t i1) {
    RawC a0 = raw(amps[i0]);
    RawC a1 = raw(amps[i1]);
    body(a0, a1);
    amps[i0] = pack(a0);
    amps[i1] = pack(a1);
  });
}

/// Applies `body` to the `target` pairs whose `control` bit is set,
/// scanning in ascending index order as StateVector::apply_controlled.
template <class Body>
inline void for_each_controlled_pair(Complex* amps, std::size_t dim,
                                     std::size_t control, std::size_t target,
                                     const Body body) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t i0 = 0; i0 < dim; ++i0) {
    if ((i0 & cbit) == 0 || (i0 & tbit) != 0) continue;
    const std::size_t i1 = i0 | tbit;
    RawC a0 = raw(amps[i0]);
    RawC a1 = raw(amps[i1]);
    body(a0, a1);
    amps[i0] = pack(a0);
    amps[i1] = pack(a1);
  }
}

/// Ascending enumeration of the basis indices with both qubit bits set:
/// expand x (over the quarter-sized subspace) by inserting a bit at the
/// lower position, then at the higher, then set both.
inline std::size_t both_set_index(std::size_t x, std::size_t low_mask,
                                  std::size_t high_mask, std::size_t bits) {
  const std::size_t t = ((x & ~low_mask) << 1) | (x & low_mask);
  return (((t & ~high_mask) << 1) | (t & high_mask)) | bits;
}

}  // namespace qbarren::exec::detail
