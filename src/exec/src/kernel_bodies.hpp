// Branch-free complex arithmetic and the amplitude-pair bodies of the
// kernels (kernels.inc). Internal to src/exec: every 2x2 update a kernel
// performs is one of the bodies below.
//
// Not a self-contained header: each ISA variant's translation unit
// (kernel_variant.hpp) includes it inside that variant's namespace and
// target region, after every header it needs (<algorithm>, <cstddef>,
// <cstdint>, qbarren/qsim/gates.hpp). Its inline functions and templates
// are thereby distinct per variant: no COMDAT copy built for a wider ISA
// can be shared with a narrower one.
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
//
// * RX, RZ and every product with a gate entry (the generic 2x2, fused
//   runs, controlled and 4x4 kernels) fold each subtracted term's sign
//   into a negated entry (d*x - o*y as d*x + n*y, n = -o): IEEE 754
//   defines x - y as x + (-y) and (-o)*y is exactly -(o*y), so no
//   component changes, signed zeros included, and no numerics or
//   fingerprint bump is needed.
//
// * Every ISA variant performs these same IEEE operations in the same
//   order. Wider vectors only do independent amplitude pairs side by side;
//   the compiler never reassociates a sum (no -ffast-math), and nothing
//   is contracted into an FMA: the library builds with -ffp-contract=off
//   (src/common/CMakeLists.txt), and products with a gate entry are
//   sign-folded (Entry below) because GCC 12's vectoriser fuses the naive
//   product's add/subtract pair into FMADDSUB regardless of that flag. So the
//   variants agree bit for bit, signed zeros included, and the choice of
//   variant needs no numerics or fingerprint bump.

namespace detail {

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

/// A gate entry, fixed across a pair loop, with its imaginary part also
/// held negated.
struct Entry {
  double re, im, nim;  // nim = -im
};

inline Entry entry(const Complex& c) {
  return Entry{c.real(), c.imag(), -c.imag()};
}

/// u * a by the naive formula, its subtraction sign-folded:
/// (u.re a.re + (-u.im) a.im, u.re a.im + u.im a.re), bit-identical to
/// cmul(raw(u), a). Without a subtraction the two components never form
/// the add/subtract pair that GCC 12's vectoriser fuses into FMADDSUB,
/// -ffp-contract=off notwithstanding, once FMA or AVX-512 is enabled.
inline RawC cmul(const Entry& u, RawC a) {
  return RawC{u.re * a.re + u.nim * a.im, u.re * a.im + u.im * a.re};
}

/// u0*a0 + u1*a1 with the std::complex kernels' operand order.
inline RawC mat2_row(const Entry& u0, const Entry& u1, RawC a0, RawC a1) {
  return cadd(cmul(u0, a0), cmul(u1, a1));
}

// --- pair bodies -------------------------------------------------------------
//
// A body maps an amplitude pair in place: (a0, a1) <- U (a0, a1), where a0
// has the target bit clear and a1 has it set.

/// Any 2x2: four complex products and two adds, 28 flops per pair.
struct Mat2Body {
  Entry u00, u01, u10, u11;

  explicit Mat2Body(const gates::Mat2& u)
      : u00(entry(u.m00)),
        u01(entry(u.m01)),
        u10(entry(u.m10)),
        u11(entry(u.m11)) {}

  void operator()(RawC& a0, RawC& a1) const {
    const RawC b0 = mat2_row(u00, u01, a0, a1);
    a1 = mat2_row(u10, u11, a0, a1);
    a0 = b0;
  }
};

/// RX shape [[c, -is], [-is, c]]: real diagonal, imaginary off-diagonal
/// (also the shape of RX's derivative). 12 flops per pair, sign-folded.
struct RxBody {
  double d0, o01, n01, o10, n10, d1;  // n = -o

  explicit RxBody(const gates::Mat2& u)
      : d0(u.m00.real()),
        o01(u.m01.imag()),
        n01(-o01),
        o10(u.m10.imag()),
        n10(-o10),
        d1(u.m11.real()) {}

  void operator()(RawC& a0, RawC& a1) const {
    const RawC b0{d0 * a0.re + n01 * a1.im, d0 * a0.im + o01 * a1.re};
    a1 = RawC{d1 * a1.re + n10 * a0.im, d1 * a1.im + o10 * a0.re};
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
/// (also the shape of RZ's derivative). 12 flops per pair: cmul,
/// sign-folded.
struct RzBody {
  RawC u00, u11;
  double n0, n1;  // -u00.im, -u11.im

  explicit RzBody(const gates::Mat2& u)
      : u00(raw(u.m00)), u11(raw(u.m11)), n0(-u00.im), n1(-u11.im) {}

  void operator()(RawC& a0, RawC& a1) const {
    a0 = RawC{u00.re * a0.re + n0 * a0.im, u00.re * a0.im + u00.im * a0.re};
    a1 = RawC{u11.re * a1.re + n1 * a1.im, u11.re * a1.im + u11.im * a1.re};
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
  if (bit == 1) {  // target 0: adjacent pairs, one flat loop
    for (std::size_t i0 = 0; i0 < dim; i0 += 2) f(i0, i0 + 1);
    return;
  }
  if (bit == 2) {  // target 1: two pairs per block of four
    for (std::size_t i0 = 0; i0 < dim; i0 += 4) {
      f(i0, i0 + 2);
      f(i0 + 1, i0 + 3);
    }
    return;
  }
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

/// Calls f(i) for every i in [0, dim) whose bit `a` is `a_set` and whose
/// bit `b` is `b_set` (a != b), in ascending order. Those indices form
/// contiguous runs of 2^min(a, b), so the inner loop is affine.
template <class F>
inline void for_each_index_matching(std::size_t dim, std::size_t a,
                                    bool a_set, std::size_t b, bool b_set,
                                    F&& f) {
  const std::size_t lo = std::size_t{1} << std::min(a, b);
  const std::size_t hi = std::size_t{1} << std::max(a, b);
  const std::size_t set = (std::size_t{a_set} << a) | (std::size_t{b_set} << b);
  if (hi == 2) {  // bits 0 and 1: one index in every four
    for (std::size_t i = set; i < dim; i += 4) f(i);
    return;
  }
  for (std::size_t block = set & hi; block < dim; block += 2 * hi) {
    if (lo == 1) {  // runs of one: every other index of the block
      for (std::size_t i = block + (set & 1); i < block + hi; i += 2) f(i);
    } else {
      for (std::size_t run = block + (set & lo); run < block + hi;
           run += 2 * lo) {
        for (std::size_t i = run; i < run + lo; ++i) f(i);
      }
    }
  }
}

/// Applies `body` to the `target` pairs whose `control` bit is set, in
/// ascending index order as StateVector::apply_controlled.
template <class Body>
inline void for_each_controlled_pair(Complex* amps, std::size_t dim,
                                     std::size_t control, std::size_t target,
                                     const Body body) {
  const std::size_t tbit = std::size_t{1} << target;
  const auto pair = [&](std::size_t i0) {
    RawC a0 = raw(amps[i0]);
    RawC a1 = raw(amps[i0 + tbit]);
    body(a0, a1);
    amps[i0] = pack(a0);
    amps[i0 + tbit] = pack(a1);
  };
  for_each_index_matching(dim, control, true, target, false, pair);
}

/// out <- (m on q_low, q_high) in, with apply_two_qubit's 4-group order
/// and accumulation order (matrix bit 0 = q_low). Each group is read in
/// full before it is written, so out may equal in.
inline void for_each_quad(const Complex* in, Complex* out, std::size_t dim,
                          const Entry (&m)[4][4], std::size_t q_low,
                          std::size_t q_high) {
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  const auto quad = [&](std::size_t i) {
    const std::size_t idx[4] = {i, i | bl, i | bh, i | bl | bh};
    RawC a[4];
    for (std::size_t k = 0; k < 4; ++k) a[k] = raw(in[idx[k]]);
    for (std::size_t r = 0; r < 4; ++r) {
      RawC acc{0.0, 0.0};
      for (std::size_t c = 0; c < 4; ++c) {
        acc = cadd(acc, cmul(m[r][c], a[c]));
      }
      out[idx[r]] = pack(acc);
    }
  };
  for_each_index_matching(dim, q_low, false, q_high, false, quad);
}

}  // namespace detail
