// The gate kernels for x86-64-v3 (AVX2, BMI2); see
// kernel_variant.hpp. Empty when the build cannot or need not have this
// variant.
#include "kernel_variant.hpp"

#if QBARREN_KERNEL_V3
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v3")
namespace qbarren::exec::isa_v3 {
inline constexpr std::size_t kVectorDoubles = vector_doubles(3);
#include "kernel_bodies.hpp"
#include "kernels.inc"

const KernelSet kKernels = QBARREN_KERNEL_SET;
}  // namespace qbarren::exec::isa_v3
#pragma GCC pop_options
#endif
