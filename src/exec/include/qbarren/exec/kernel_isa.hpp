// ISA variants of the gate kernels.
//
// The kernel source (src/exec/src/kernels.inc and the kernel_bodies.hpp
// it uses) is compiled once per x86-64 ISA level: the baseline the
// compiler targets, and with GCC on x86-64 also x86-64-v3 (AVX2) and
// x86-64-v4 (AVX-512) unless the baseline already implies them. At first
// use the public kernels (kernels.hpp) select the widest compiled variant
// the running CPU supports and forward to it from then on. The table of variants is
// internal (src/exec/src/kernel_variant.hpp); the kernel tests use it to
// compare every variant the host can run with the baseline.
//
// Every variant performs the same IEEE operations in the same order (no
// reassociation, no contraction into FMA; see kernels.hpp), so all return
// identical bits. The variant in use is therefore reported, never
// recorded: it enters no fingerprint, checkpoint or cache key.
#pragma once

namespace qbarren::exec {

/// The ISA level of the kernel variant in use: "x86-64", "x86-64-v3" or
/// "x86-64-v4" ("generic" on other architectures). A build whose compiler
/// flags already imply a level (e.g. -march=native) names its baseline by
/// that level.
[[nodiscard]] const char* kernel_isa();

}  // namespace qbarren::exec
