// Allocation-free state-vector kernels for compiled execution.
//
// Each kernel mirrors a plain amplitude loop (StateVector's
// apply_single_qubit / apply_two_qubit, and the controlled 2x2 of the
// op-by-op oracle in tests/reference_interpreter.hpp): the same amplitude
// pairs (independent, so visiting them block by block changes nothing) and
// per amplitude the same result. That is what makes compiled execution
// bit-identical to an op-by-op walk of the circuit — the differences are
// that the 2x2 entries live on the stack (no heap-allocated
// ComplexMatrix per gate application), that fused runs make a single pass
// over the amplitudes, and that the out-of-place variants avoid the
// full-vector copy the adjoint sweep otherwise pays per parameter.
//
// They are the library's only gate-application code: compiled plans run on
// them, and so does the density-matrix simulator (qbarren/dsim), which
// holds rho as a 2n-qubit state vector and conjugates it by a gate as two
// kernel calls, one on the row bits and one on the column bits.
//
// Arithmetic contract:
//  * Complex products use the naive component formula on plain doubles.
//    For finite operands it equals the std::complex product exactly; the
//    library multiply differs only through its NaN fixup, which never fires
//    on a valid simulation's finite values, and whose per-product branch
//    would otherwise sit in every hot loop.
//  * Parameterized rotations take an axis-specialised body: RX and RY in
//    real arithmetic (12 flops per amplitude pair instead of the generic
//    28), RZ as a diagonal phase. The products they skip are with entry
//    components that are exact zeros, and such a product can only change
//    the sign of a zero result. Every nonzero amplitude component is
//    therefore bit-identical to the generic 2x2 (and op-by-op) result;
//    signed zeros never reach reported values, since expectations and
//    inner products accumulate from +0. Hence no numerics or fingerprint
//    bump accompanied the specialisation.
//  * RX and RZ compute each subtracted term d*x - o*y as d*x + (-o)*y.
//    IEEE subtraction is addition of the negation and negating a factor
//    negates the product exactly, so this is bit-identical on every
//    component, signed zeros included: no value, and hence no numerics
//    version or fingerprint, changes.
//  * CZ, controlled and two-qubit kernels enumerate the indices whose two
//    qubit bits match a pattern as contiguous runs instead of scanning and
//    skipping; the visited amplitudes and their arithmetic are unchanged.
//  * A CZ ladder (CZs on distinct neighbour pairs, as every paper ansatz's
//    entangling layer) runs as one pass that flips the IEEE sign bit of
//    both components of each amplitude the ladder negates an odd number of
//    times. A CZ is diagonal with entries +-1, so CZs commute exactly and
//    each one only negates; negation is exact and flips nothing but the
//    sign bit, and two negations restore the original bits. So the pass
//    returns the gate-by-gate result bit for bit, signed zeros and NaNs
//    included, and needs no numerics version or fingerprint bump.
//  * The kernels are compiled once per x86-64 ISA level (baseline,
//    x86-64-v3, x86-64-v4) and these functions forward to the widest one
//    the CPU supports (qbarren/exec/kernel_isa.hpp). Every variant does the
//    same IEEE operations in the same order: wider vectors only process
//    independent amplitude pairs side by side, the compiler never
//    reassociates a sum without -ffast-math, and no variant contracts a
//    product and a sum into an FMA — the library builds with
//    -ffp-contract=off, and products with a gate entry are sign-folded as
//    above, since GCC 12's vectoriser fuses the naive product's
//    add/subtract pair into FMADDSUB regardless of that flag. So every
//    variant returns the same bits, signed zeros included, and which one
//    runs needs no numerics version or fingerprint bump.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren::exec {

/// state <- (U on target) state, with U given as stack entries.
void apply_mat2(StateVector& state, const gates::Mat2& u, std::size_t target);

/// Applies pool[indices[0]], pool[indices[1]], ... (reversed index order
/// when `reverse`) to `target` in one pass over the amplitudes, keeping
/// each amplitude pair in registers between gates. Bit-identical to
/// applying the same matrices one at a time.
void apply_mat2_run(StateVector& state, const gates::Mat2* pool,
                    const std::uint32_t* indices, std::size_t count,
                    bool reverse, std::size_t target);

/// Controlled 2x2 (applied where `control` is |1>).
void apply_controlled_mat2(StateVector& state, const gates::Mat2& u,
                           std::size_t control, std::size_t target);

/// Parameterized rotation R_axis(theta) on `target`, through the axis body
/// (RX/RY in real arithmetic, RZ diagonal; see the contract above).
void apply_rotation(StateVector& state, gates::Axis axis, double theta,
                    std::size_t target);

/// Controlled rotation (control, target): the controlled 2x2 of
/// rotation(axis, theta).
void apply_controlled_rotation(StateVector& state, gates::Axis axis,
                               double theta, std::size_t control,
                               std::size_t target);

/// As apply_rotation, but with the rotation entries already computed (the
/// adjoint sweep evaluates them once and applies them several times).
/// `u` must be rotation_entries(axis, angle) for some angle.
void apply_rotation_mat2(StateVector& state, gates::Axis axis,
                         const gates::Mat2& u, std::size_t target);

/// Applies rotation u_first then rotation u_second (entries of their axes)
/// to `target` in one pass, keeping each amplitude pair in registers
/// between the two gates — identical to two apply_rotation_mat2 calls.
/// HEA layers interleave same-qubit rotation pairs (RX then RY), so the
/// adjoint forward pass hits this constantly.
void apply_rotation_pair(StateVector& state, gates::Axis axis_first,
                         const gates::Mat2& u_first, gates::Axis axis_second,
                         const gates::Mat2& u_second, std::size_t target);

/// CZ on (a, b): negates the quarter of the amplitudes with both qubit
/// bits set, enumerating them as contiguous runs instead of scanning the
/// whole vector with a branch. Negation is exact, so the result is
/// bit-identical to a scan that negates every matching amplitude.
void apply_cz(StateVector& state, std::size_t qubit_a, std::size_t qubit_b);

/// CZ applied to both states (the adjoint sweep un-applies every constant
/// gate from both phi and lambda), one state after the other: a joint pass
/// over two vectors that may alias measured about half as fast.
void apply_cz_pair(StateVector& s1, StateVector& s2, std::size_t qubit_a,
                   std::size_t qubit_b);

/// Words in a CZ ladder's sign table (see apply_cz_ladder).
inline constexpr std::size_t kCzLadderSignWords = 128;

/// Word `w` (< kCzLadderSignWords) of the sign table of the ladder whose
/// pairs are `mask` (bit k set: CZ(k, k+1)): the IEEE sign bit when the
/// pairs wholly inside the low 7 index bits flip an amplitude whose index
/// has low bits `w` an odd number of times, zero otherwise.
[[nodiscard]] inline std::uint64_t cz_ladder_sign_word(std::uint64_t mask,
                                                       std::size_t w) {
  const std::uint64_t bits = w & (w >> 1) & mask & 0x3F;
  return std::uint64_t{std::popcount(bits) & 1u} << 63;
}

/// A product of CZs on distinct neighbour pairs (k, k+1), bit k of `mask`
/// set for each, in one pass: amplitude i is negated iff
/// popcount(i & (i >> 1) & mask) is odd. Runs in blocks of 64 amplitudes;
/// `signs[(i & 64) + (i & 63)]` = cz_ladder_sign_word(mask, i & 127)
/// covers the pairs k <= 5, and the pairs k >= 6, which see only a
/// block's index bits, add one parity per block. Blocks that nothing
/// negates are skipped. Negation only flips the sign bit and the CZs
/// commute, so the result is bit-identical to applying the CZs one by
/// one, in any order (signed zeros and NaNs included).
void apply_cz_ladder(StateVector& state, std::uint64_t mask,
                     const std::uint64_t* signs);

/// dst <- (U on target) src, out of place: every amplitude of dst is
/// written from src, so no prior copy of src into dst is needed.
/// Dimensions must match.
void apply_mat2_from(StateVector& dst, const StateVector& src,
                     const gates::Mat2& u, std::size_t target);

/// dst <- (m on q_low, q_high) src, mirroring apply_two_qubit's
/// accumulation order; `m` holds the 4x4 matrix's 16 entries row-major
/// (matrix bit 0 = q_low). Each group of four amplitudes is read in full
/// before it is written, so dst may be src (in place). Dimensions must
/// match.
void apply_mat4_from(StateVector& dst, const StateVector& src,
                     std::span<const Complex, 16> m, std::size_t q_low,
                     std::size_t q_high);

/// One combined adjoint-sweep step for a rotation op: applies `inv` to phi
/// in place, returns <lambda | dr | inv phi> (lambda read before its own
/// update), and applies `inv` to lambda in place — the three passes the
/// sweep otherwise makes per parameter, in two loops over the amplitudes.
/// Per-amplitude expressions and the inner product's ascending-index
/// accumulation order match the separate kernels exactly: the loops run
/// on SIMD vectors, but their terms are added one amplitude at a time,
/// lowest index first. `inv` and `dr` take the axis body (the derivative
/// has the rotation's shape).
[[nodiscard]] Complex adjoint_rotation_sweep(StateVector& phi,
                                             StateVector& lambda,
                                             gates::Axis axis,
                                             const gates::Mat2& inv,
                                             const gates::Mat2& dr,
                                             std::size_t target);

}  // namespace qbarren::exec
