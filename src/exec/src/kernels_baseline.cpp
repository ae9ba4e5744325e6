// The gate kernels for the target the compiler flags select (see
// kernel_variant.hpp).
#include "kernel_variant.hpp"

namespace qbarren::exec::isa_baseline {
inline constexpr std::size_t kVectorDoubles =
    vector_doubles(QBARREN_BASELINE_LEVEL);
#include "kernel_bodies.hpp"
#include "kernels.inc"

const KernelSet kKernels = QBARREN_KERNEL_SET;
}  // namespace qbarren::exec::isa_baseline
