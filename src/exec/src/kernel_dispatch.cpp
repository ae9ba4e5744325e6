// Run-time choice of the gate kernels' ISA variant, and the public kernel
// entry points, which forward to the variant chosen at first use (see
// qbarren/exec/kernel_isa.hpp and kernel_variant.hpp).
#include <algorithm>
#include <array>
#include <ranges>
#include <span>

#include "kernel_variant.hpp"

namespace qbarren::exec {
namespace {

constexpr const char* baseline_name() {
#if !defined(__x86_64__)
  return "generic";
#elif QBARREN_BASELINE_LEVEL == 4
  return "x86-64-v4";
#elif QBARREN_BASELINE_LEVEL == 3
  return "x86-64-v3";
#else
  return "x86-64";
#endif
}

// __builtin_cpu_supports takes a string literal, hence one function per
// level.
#if QBARREN_KERNEL_V3
bool cpu_has_v3() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v3");
}
#endif
#if QBARREN_KERNEL_V4
bool cpu_has_v4() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4");
}
#endif

/// The widest variant the CPU supports (the baseline always is).
const KernelVariant& selected() {
  static const KernelVariant& chosen = *std::ranges::find_if(
      kernel_variants() | std::views::reverse, &KernelVariant::supported);
  return chosen;
}

const KernelSet& active() { return *selected().kernels; }

}  // namespace

const char* kernel_isa() { return selected().isa; }

// Determined once: whether the CPU supports a level cannot change.
std::span<const KernelVariant> kernel_variants() {
  static const std::array table{
      KernelVariant{baseline_name(), true, &isa_baseline::kKernels},
#if QBARREN_KERNEL_V3
      KernelVariant{"x86-64-v3", cpu_has_v3(), &isa_v3::kKernels},
#endif
#if QBARREN_KERNEL_V4
      KernelVariant{"x86-64-v4", cpu_has_v4(), &isa_v4::kKernels},
#endif
  };
  return table;
}

// --- public entry points: forward to the selected variant --------------------

#define QBARREN_KERNEL_FORWARDER(ret, name, params, args) \
  ret name params { return active().name args; }
QBARREN_KERNEL_ENTRY_POINTS(QBARREN_KERNEL_FORWARDER)
#undef QBARREN_KERNEL_FORWARDER

}  // namespace qbarren::exec
