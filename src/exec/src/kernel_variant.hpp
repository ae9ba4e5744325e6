// The gate kernels' ISA variants (see qbarren/exec/kernel_isa.hpp): which
// levels this build compiles, the one list of kernel entry points, and
// the table each variant's translation unit (kernels_baseline.cpp,
// kernels_x86_64_v3.cpp, kernels_x86_64_v4.cpp) exports to the dispatcher
// (kernel_dispatch.cpp). Internal: only the library, its kernel tests and
// its kernel micro-benchmarks include it.
//
// There is one kernel source, kernel_bodies.hpp + kernels.inc. Each
// variant TU includes it inside its own namespace; the levels above the baseline do so inside a
// `#pragma GCC target("arch=...")` region, which makes every function
// defined there, inline helpers and template bodies included, specific to
// that level. This header includes every header the source uses, and the
// variant TUs include it before their region, so the standard-library and
// qbarren inline functions keep the baseline target: they inline into
// each variant, and any out-of-line copy the linker keeps is a baseline
// copy. (Per-file -march flags would not give that guarantee: a COMDAT
// copy compiled for AVX-512 could be the one the linker keeps, and run on
// a CPU without it.) One TU per variant keeps each unit small enough for
// the inliner to flatten every pair body into its loop.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "qbarren/exec/kernel_isa.hpp"
#include "qbarren/exec/kernels.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

// The level the compiler flags already imply (a -march=native build may
// be x86-64-v3 or v4 throughout): the baseline is named after it, and
// only the levels above it get a variant of their own. Such a variant
// could not inline helpers built for a different -march, so one at or
// below the baseline would only add a slower copy.
#if defined(__AVX2__) && defined(__BMI__) && defined(__BMI2__) && \
    defined(__F16C__) && defined(__FMA__) && defined(__LZCNT__) &&   \
    defined(__MOVBE__)
#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512CD__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#define QBARREN_BASELINE_LEVEL 4
#else
#define QBARREN_BASELINE_LEVEL 3
#endif
#else
#define QBARREN_BASELINE_LEVEL 1
#endif

// Variants need GCC's target pragmas and its CPU detection by ISA level
// (GCC 12 on) on x86-64; any other compiler or architecture builds the
// baseline alone.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && \
    defined(__x86_64__)
#define QBARREN_KERNEL_V3 (QBARREN_BASELINE_LEVEL < 3)
#define QBARREN_KERNEL_V4 (QBARREN_BASELINE_LEVEL < 4)
#else
#define QBARREN_KERNEL_V3 0
#define QBARREN_KERNEL_V4 0
#endif

// Every kernel entry point of kernels.hpp, once, as X(return type, name,
// (parameters), (arguments)). KernelSet, each variant's table and the
// public forwarders are all generated from it; a signature that disagrees
// with the public declaration does not compile.
#define QBARREN_KERNEL_ENTRY_POINTS(X)                                       \
  X(void, apply_mat2,                                                        \
    (StateVector& state, const gates::Mat2& u, std::size_t target),          \
    (state, u, target))                                                      \
  X(void, apply_mat2_run,                                                    \
    (StateVector& state, const gates::Mat2* pool,                            \
     const std::uint32_t* indices, std::size_t count, bool reverse,          \
     std::size_t target),                                                    \
    (state, pool, indices, count, reverse, target))                          \
  X(void, apply_controlled_mat2,                                             \
    (StateVector& state, const gates::Mat2& u, std::size_t control,          \
     std::size_t target),                                                    \
    (state, u, control, target))                                             \
  X(void, apply_rotation,                                                    \
    (StateVector& state, gates::Axis axis, double theta,                     \
     std::size_t target),                                                    \
    (state, axis, theta, target))                                            \
  X(void, apply_controlled_rotation,                                         \
    (StateVector& state, gates::Axis axis, double theta,                     \
     std::size_t control, std::size_t target),                               \
    (state, axis, theta, control, target))                                   \
  X(void, apply_rotation_mat2,                                               \
    (StateVector& state, gates::Axis axis, const gates::Mat2& u,             \
     std::size_t target),                                                    \
    (state, axis, u, target))                                                \
  X(void, apply_rotation_pair,                                               \
    (StateVector& state, gates::Axis axis_first,                             \
     const gates::Mat2& u_first, gates::Axis axis_second,                    \
     const gates::Mat2& u_second, std::size_t target),                       \
    (state, axis_first, u_first, axis_second, u_second, target))             \
  X(void, apply_cz,                                                          \
    (StateVector& state, std::size_t qubit_a, std::size_t qubit_b),          \
    (state, qubit_a, qubit_b))                                               \
  X(void, apply_cz_pair,                                                     \
    (StateVector& s1, StateVector& s2, std::size_t qubit_a,                  \
     std::size_t qubit_b),                                                   \
    (s1, s2, qubit_a, qubit_b))                                              \
  X(void, apply_cz_ladder,                                                   \
    (StateVector& state, std::uint64_t mask, const std::uint64_t* signs),    \
    (state, mask, signs))                                                    \
  X(void, apply_mat2_from,                                                   \
    (StateVector& dst, const StateVector& src, const gates::Mat2& u,         \
     std::size_t target),                                                    \
    (dst, src, u, target))                                                   \
  X(void, apply_mat4_from,                                                   \
    (StateVector& dst, const StateVector& src,                               \
     std::span<const Complex, 16> m, std::size_t q_low, std::size_t q_high), \
    (dst, src, m, q_low, q_high))                                            \
  X(Complex, adjoint_rotation_sweep,                                         \
    (StateVector& phi, StateVector& lambda, gates::Axis axis,                \
     const gates::Mat2& inv, const gates::Mat2& dr, std::size_t target),     \
    (phi, lambda, axis, inv, dr, target))

namespace qbarren::exec {

/// Doubles per vector register at an ISA level (1: SSE2 or another
/// 128-bit SIMD, 3: AVX2, 4: AVX-512), the widest vectors of the
/// vector kernels. Each variant TU sets its kVectorDoubles from it: the
/// ISA macros cannot tell, since GCC preprocesses a C++ TU before its
/// target pragmas take effect.
constexpr std::size_t vector_doubles(int level) {
  return level >= 4 ? 8 : level == 3 ? 4 : 2;
}

/// Every kernel entry point of one variant, with the public signatures.
struct KernelSet {
#define QBARREN_KERNEL_FIELD(ret, name, params, args)                        \
  decltype(&exec::name) name;
  QBARREN_KERNEL_ENTRY_POINTS(QBARREN_KERNEL_FIELD)
#undef QBARREN_KERNEL_FIELD
};

/// One compiled variant.
struct KernelVariant {
  const char* isa;     ///< as kernel_isa()
  bool supported;      ///< the running CPU can execute it
  const KernelSet* kernels;
};

/// The compiled variants, baseline first, in ascending ISA level. The
/// public kernels run the last supported one. Tests compare every variant
/// the host can execute against the baseline.
[[nodiscard]] std::span<const KernelVariant> kernel_variants();

namespace isa_baseline {
extern const KernelSet kKernels;
}
#if QBARREN_KERNEL_V3
namespace isa_v3 {
extern const KernelSet kKernels;
}
#endif
#if QBARREN_KERNEL_V4
namespace isa_v4 {
extern const KernelSet kKernels;
}
#endif

}  // namespace qbarren::exec

#define QBARREN_KERNEL_NAME(ret, name, params, args) name,

/// The kernel set of the variant whose namespace this expands in.
#define QBARREN_KERNEL_SET                                                   \
  KernelSet { QBARREN_KERNEL_ENTRY_POINTS(QBARREN_KERNEL_NAME) }
