// Static verification of compiled execution plans.
//
// Every consumer — simulate, all four gradient engines, the trainer, the
// landscape scan, the noisy simulator — executes through
// `CompiledCircuit`, the only executor, so a silent miscompile in lowering or fusion would
// corrupt every paper figure at once. The PlanVerifier is the classic
// graph-compiler answer: check the lowered program against its source IR
// *statically*, without executing either. All checks are structural or
// small dense-matrix algebra (2x2 / 4x4), so verification costs microseconds
// per plan — negligible next to compilation, let alone simulation.
//
// Checks (stable codes, QP1xx; severities are the defaults emitted):
//   QP100  error    shape mismatch: plan's qubit / parameter / source-op
//                   counts disagree with the source circuit
//   QP101  error    matrix-pool entry is not unitary within tolerance
//                   (warning when only custom gates reference it — the
//                   plan applies those verbatim, as the source circuit
//                   defines them; QB006 already reports the modeling
//                   problem)
//   QP102  error    forward/inverse pool pairing broken: pool sizes
//                   disagree, or an inverse entry is not the inverse
//                   (adjoint, for custom gates) of its forward entry
//   QP103  error    illegal fusion: a fused run's indices are out of
//                   range, too short, or its pooled-matrix product does
//                   not equal the product of the source ops' matrices
//   QP104  error    binding-table mismatch: a parameter's recorded source
//                   op / plan op disagrees with the circuit's actual
//                   consumers (completeness and bijectivity)
//   QP105  error    kernel-op coverage broken: the plan's source ranges do
//                   not tile the op list exactly once in order, or a plan
//                   op's kernel / wires / axis / parameter / pooled matrix
//                   (CZ-ladder mask) does not match the source op(s) it
//                   claims to lower
//   QP106  error    a plan exists over a custom gate whose matrix has the
//                   wrong dimensions — compilation must refuse such
//                   circuits, so executing them throws the compile error
//                   (info: the circuit cannot be lowered, so executing it
//                   throws — emitted by verify_circuit_lowering, never by
//                   verify_plan)
//   QP107  retired, not reused: checked the batched-dispatch rotation-slot
//                   table, which was removed with lane batching
//   QP108  error    CZ-ladder pool entry broken: one of its 128 sign words
//                   differs from the word recomputed from its mask, or the
//                   mask names a pair outside the register
//                   (QP105 proves the mask itself: one bit per covered
//                   source CZ, each a neighbour pair (k, k+1) in the mask)
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren {

struct PlanVerifyOptions {
  /// QP101: max elementwise |u^H u - I| tolerated before an entry is
  /// flagged non-unitary (matches LintOptions::unitarity_tolerance).
  double unitarity_tolerance = 1e-9;

  /// QP105 (and QP102's adjoint check): max elementwise deviation between
  /// a pooled matrix and the one recomputed from the source op. Both sides
  /// run the same arithmetic, so the default is near machine precision.
  double match_tolerance = 1e-12;

  /// QP102/QP103: max elementwise deviation for matrix *products*
  /// (forward x inverse vs identity; fused run vs source-op product),
  /// which accumulate rounding the elementwise checks do not.
  double product_tolerance = 1e-9;

  /// Per-code cap on repeated findings; the overflow is folded into one
  /// summary finding (same policy as LintOptions::max_findings_per_rule).
  std::size_t max_findings_per_code = 8;
};

/// Statically checks `plan` against `circuit`; returns all findings,
/// ordered by code then position. Empty means the lowering is proven
/// consistent under the checks above.
[[nodiscard]] Diagnostics verify_plan(const Circuit& circuit,
                                      const exec::CompiledCircuit& plan,
                                      const PlanVerifyOptions& options = {});

/// Compiles `circuit` (without attaching the plan) and verifies the
/// result. When the circuit cannot be lowered, returns a single
/// info-severity QP106 finding carrying the compile error instead: no plan
/// exists to verify, and executing the circuit throws that error.
[[nodiscard]] Diagnostics verify_circuit_lowering(
    const Circuit& circuit, const PlanVerifyOptions& options = {});

// --- static resource estimate (QB010, bench) -------------------------------

/// Statically estimated execution cost of one pass of the lowered program
/// over a 2^num_qubits state vector, from a simple per-kernel cost model
/// charging each kernel the flops it performs (complex mul = 6 flops,
/// complex add = 2: a generic 2x2 costs 28 per amplitude pair, a
/// parameterized RX/RY/RZ rotation's specialised body 12; bytes =
/// amplitudes read + written at 16 bytes each). A CZ ladder is charged its
/// gates' flops (2 per quad each) but one pass's bytes, like a fused run.
/// Deterministic and exact for the model — used for plan-to-plan
/// comparisons (QB010, bench JSON), not wall-time prediction.
struct PlanResourceEstimate {
  double flops = 0.0;
  double bytes = 0.0;
  std::size_t plan_ops = 0;
  std::size_t fused_runs = 0;
  std::size_t cz_ladders = 0;       ///< kCzLadder ops among plan_ops
  std::size_t cz_ladder_gates = 0;  ///< source CZs those ladders cover
};

[[nodiscard]] PlanResourceEstimate estimate_plan_resources(
    const exec::CompiledCircuit& plan);

// --- run-wide verification hook --------------------------------------------

/// Thrown by the ScopedPlanVerification hook when a freshly attached plan
/// fails verification with error-severity findings. Carries the findings
/// so callers can render them.
class PlanVerificationError : public Error {
 public:
  PlanVerificationError(const std::string& context, Diagnostics diagnostics);

  [[nodiscard]] const Diagnostics& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  Diagnostics diagnostics_;
};

/// RAII guard behind the CLI's --verify-plans flag: while alive, every
/// plan freshly compiled and attached by exec::plan_for() is verified
/// against its source circuit; error findings throw PlanVerificationError
/// out of plan_for's caller. Verification changes no execution arithmetic,
/// so verified runs are byte-identical to unverified ones. Restores the
/// previously installed attach hook on destruction. The counters are
/// shared with the hook and thread-safe (plan_for runs under the parallel
/// executor).
class ScopedPlanVerification {
 public:
  explicit ScopedPlanVerification(PlanVerifyOptions options = {});
  ~ScopedPlanVerification();
  ScopedPlanVerification(const ScopedPlanVerification&) = delete;
  ScopedPlanVerification& operator=(const ScopedPlanVerification&) = delete;

  /// Plans verified (clean or with warnings) since construction.
  [[nodiscard]] std::size_t plans_verified() const noexcept;

  /// Warning-severity findings accumulated across verified plans.
  [[nodiscard]] std::size_t warnings() const noexcept;

 private:
  struct Counters {
    std::atomic<std::size_t> plans{0};
    std::atomic<std::size_t> warnings{0};
  };
  std::shared_ptr<Counters> counters_;
  exec::PlanAttachHook previous_;
};

}  // namespace qbarren
