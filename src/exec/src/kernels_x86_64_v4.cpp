// The gate kernels for x86-64-v4 (AVX-512 F/BW/CD/DQ/VL); see
// kernel_variant.hpp. Empty when the build cannot or need not have this
// variant.
#include "kernel_variant.hpp"

#if QBARREN_KERNEL_V4
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
namespace qbarren::exec::isa_v4 {
inline constexpr std::size_t kVectorDoubles = vector_doubles(4);
#include "kernel_bodies.hpp"
#include "kernels.inc"

const KernelSet kKernels = QBARREN_KERNEL_SET;
}  // namespace qbarren::exec::isa_v4
#pragma GCC pop_options
#endif
