// Branch-free complex arithmetic and the amplitude-pair bodies of the
// kernels (kernels.inc). Internal to src/exec: every 2x2 update a kernel
// performs is one of the bodies below.
//
// Not a self-contained header: each ISA variant's translation unit
// (kernel_variant.hpp) includes it inside that variant's namespace and
// target region, after every header it needs (<algorithm>, <cstddef>,
// <cstdint>, <cstring>, qbarren/qsim/gates.hpp) and after defining the
// variant's kVectorDoubles. Its inline functions and templates
// are thereby distinct per variant: no COMDAT copy built for a wider ISA
// can be shared with a narrower one.
//
// Arithmetic contract:
//
// * Complex products use the naive component formula (ac - bd, ad + bc),
//   sign-folded (cmul below). For finite operands it equals the
//   std::complex product exactly: GCC's inlined multiply computes the same
//   scalar products in the same order and only diverges through its NaN
//   fixup (__muldc3), which never fires on the finite amplitudes and gate
//   entries a valid simulation produces. Doing the products on plain
//   doubles drops that per-product compare-and-branch from the hot loops.
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
//
// * The adjoint sweep is written on explicit vectors (the vector bodies
//   below) instead of leaving its loops to the vectoriser, which keeps them
//   scalar because of the ordered sum. A vector body takes its values from
//   the scalar body (RxBody, RyBody, RzBody), so gate entries and sign
//   folds are defined once, and each lane does that body's products and
//   sums on one amplitude component: the same IEEE operations on the same
//   operands, so every amplitude is bit-identical to the scalar body's.
//   Shuffles only move values. The conjugate product is sign-folded like
//   cmul(Entry, RawC), and its -l.im is l.im * -1, an exact negation, so
//   no lane pair subtracts and nothing forms FMADDSUB. The inner product
//   adds each vector's terms to one packed [re, im] accumulator one
//   amplitude at a time, lowest index first: the additions and their
//   order are the scalar loop's, so the sum rounds at the same steps and
//   returns the same bits. Lanes are never summed in a tree, which would
//   reassociate.

namespace detail {

/// One complex value held as two scalars, for branch-free products.
struct RawC {
  double re;
  double im;
};

inline RawC raw(const Complex& c) { return RawC{c.real(), c.imag()}; }

inline Complex pack(RawC a) { return Complex{a.re, a.im}; }

inline RawC cadd(RawC a, RawC b) { return RawC{a.re + b.re, a.im + b.im}; }

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
/// (u.re a.re - u.im a.im, u.re a.im + u.im a.re): the same scalar
/// products, in the same order, as the inlined finite-path std::complex
/// multiply. Without a subtraction the two components never form
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

// --- vector bodies -----------------------------------------------------------
//
// The adjoint sweep (kernels.inc) runs on explicit vectors of W doubles,
// W a power of two from 2 to kVectorDoubles: W/2 consecutive amplitudes,
// each as [re, im]. A vector body holds its scalar body's values, each
// broadcast or placed in the lane it multiplies, and performs the scalar
// body's products and sums lane by lane.

template <std::size_t W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// W doubles: W/2 amplitudes, each as [re, im].
template <std::size_t W>
using Vec = typename VecOf<W>::type;

/// One amplitude, [re, im].
using Vec2 = Vec<2>;

/// `re` in the real lanes and `im` in the imaginary lanes.
template <std::size_t W>
inline Vec<W> lanes(double re, double im) {
  Vec<W> v{};
  for (std::size_t k = 0; k < W; k += 2) {
    v[k] = re;
    v[k + 1] = im;
  }
  return v;
}

template <std::size_t W>
inline Vec<W> splat(double x) {
  return lanes<W>(x, x);
}

/// Each amplitude's [re, im] as [im, re].
template <std::size_t W>
inline Vec<W> swap_parts(Vec<W> v) {
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 1, 0);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
  }
}

/// Each amplitude's real part in both of its lanes.
template <std::size_t W>
inline Vec<W> dup_re(Vec<W> v) {
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 0, 0);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 0, 0, 2, 2);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6);
  }
}

/// Each amplitude's imaginary part in both of its lanes.
template <std::size_t W>
inline Vec<W> dup_im(Vec<W> v) {
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 1, 1);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 1, 1, 3, 3);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 1, 1, 3, 3, 5, 5, 7, 7);
  }
}

/// The W doubles at `d` (W/2 amplitudes of a state viewed as doubles).
template <std::size_t W>
inline Vec<W> load(const double* d) {
  Vec<W> v{};
  std::memcpy(&v, d, sizeof v);
  return v;
}

template <std::size_t W>
inline void store(double* d, Vec<W> v) {
  std::memcpy(d, &v, sizeof v);
}

/// conj(l) * a per amplitude by the naive formula, sign-folded as
/// (l.re a.re + l.im a.im, l.re a.im + (-l.im) a.re): its subtraction of
/// (-l.im) a.im written as the addition of l.im a.im.
template <std::size_t W>
inline Vec<W> conj_mul(Vec<W> l, Vec<W> a) {
  const Vec<W> im = dup_im<W>(l) * lanes<W>(1.0, -1.0);
  return dup_re<W>(l) * a + im * swap_parts<W>(a);
}

/// acc + each amplitude of `terms` in turn, lowest index first: the
/// order in which a scalar loop would add them.
template <std::size_t W>
inline Vec2 add_in_order(Vec2 acc, Vec<W> terms) {
  if constexpr (W == 2) {
    return acc + terms;
  } else if constexpr (W == 4) {
    acc += __builtin_shufflevector(terms, terms, 0, 1);
    return acc + __builtin_shufflevector(terms, terms, 2, 3);
  } else {
    static_assert(W == 8);
    acc += __builtin_shufflevector(terms, terms, 0, 1);
    acc += __builtin_shufflevector(terms, terms, 2, 3);
    acc += __builtin_shufflevector(terms, terms, 4, 5);
    return acc + __builtin_shufflevector(terms, terms, 6, 7);
  }
}

/// The vector body of scalar body `Body`.
template <std::size_t W, class Body>
struct VecBody;

/// RxBody lane by lane: a0' = d0 a0 + [n01, o01] swap(a1),
/// a1' = d1 a1 + [n10, o10] swap(a0).
template <std::size_t W>
struct VecBody<W, RxBody> {
  Vec<W> d0, c01, d1, c10;

  explicit VecBody(const RxBody& b)
      : d0(splat<W>(b.d0)),
        c01(lanes<W>(b.n01, b.o01)),
        d1(splat<W>(b.d1)),
        c10(lanes<W>(b.n10, b.o10)) {}

  void operator()(Vec<W>& a0, Vec<W>& a1) const {
    const Vec<W> b0 = d0 * a0 + c01 * swap_parts<W>(a1);
    a1 = d1 * a1 + c10 * swap_parts<W>(a0);
    a0 = b0;
  }
};

/// RyBody lane by lane: a0' = d0 a0 + o01 a1, a1' = o10 a0 + d1 a1.
template <std::size_t W>
struct VecBody<W, RyBody> {
  Vec<W> d0, o01, o10, d1;

  explicit VecBody(const RyBody& b)
      : d0(splat<W>(b.d0)),
        o01(splat<W>(b.o01)),
        o10(splat<W>(b.o10)),
        d1(splat<W>(b.d1)) {}

  void operator()(Vec<W>& a0, Vec<W>& a1) const {
    const Vec<W> b0 = d0 * a0 + o01 * a1;
    a1 = o10 * a0 + d1 * a1;
    a0 = b0;
  }
};

/// RzBody lane by lane: a0' = u00.re a0 + [n0, u00.im] swap(a0), and a1
/// with u11.
template <std::size_t W>
struct VecBody<W, RzBody> {
  Vec<W> r0, c0, r1, c1;

  explicit VecBody(const RzBody& b)
      : r0(splat<W>(b.u00.re)),
        c0(lanes<W>(b.n0, b.u00.im)),
        r1(splat<W>(b.u11.re)),
        c1(lanes<W>(b.n1, b.u11.im)) {}

  void operator()(Vec<W>& a0, Vec<W>& a1) const {
    a0 = r0 * a0 + c0 * swap_parts<W>(a0);
    a1 = r1 * a1 + c1 * swap_parts<W>(a1);
  }
};

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
/// ascending index order.
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
