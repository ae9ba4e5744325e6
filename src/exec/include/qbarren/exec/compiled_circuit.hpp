// Compiled execution plans: lower a Circuit once, run it many times.
//
// The paper's workloads re-execute the same circuit structure thousands of
// times with different parameter bindings (200 sampled deep HEAs per
// Fig 5a cell; 50 adjoint-gradient iterations over a fixed ansatz for
// Fig 5b/5c). `CompiledCircuit` separates the one-time lowering from the
// repeated execution:
//
//   * the op list is flattened into a stream of kernel ops;
//   * every constant gate matrix is computed once and cached (shared
//     across all applications; see also the function-local statics in
//     qbarren/qsim/gates.hpp);
//   * adjacent constant single-qubit gates on the same qubit are fused
//     into a single one-pass kernel (their matrices are applied
//     sequentially in registers, so the arithmetic — and therefore the
//     result — is identical to applying them one at a time);
//   * a run of >= 2 consecutive CZs on distinct neighbour pairs (k, k+1)
//     — the entangling ladder of every paper ansatz — is lowered to one
//     sign pass (kCzLadder; exact, see qbarren/exec/kernels.hpp);
//   * parameterized rotations run through allocation-free kernels
//     (qbarren/exec/kernels.hpp) instead of heap-matrix dispatch;
//   * a parameter -> op binding table replaces the linear
//     operation_for_parameter scan.
//
// The plan is the only state-vector executor: `exec::simulate`, every
// gradient engine and the trainer run circuits through it (the noisy
// density-matrix simulator, qbarren/dsim, applies each op's matrix through
// the same kernels without a plan). Its results
// are bit-identical to an op-by-op walk of the source circuit (same op
// order, same per-op arithmetic; tests/reference_interpreter.hpp keeps that
// walk as the oracle), so results and checkpoints written before this layer
// existed stay valid.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/exec/kernels.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren {
class Observable;  // qbarren/obs/observable.hpp
}  // namespace qbarren

namespace qbarren::exec {

struct ShiftSpec;

class CompiledCircuit final : public ExecutionPlan {
 public:
  /// The plan's kernel kinds. Each plan op lowers one source op, except
  /// kFusedSingle and kCzLadder, which lower `fused_count` consecutive
  /// ones.
  enum class Kernel : std::uint8_t {
    kRotation,            ///< parameterized R_axis(params[param]) on qubit0
    kControlledRotation,  ///< parameterized controlled-R, qubit0 = control
    kFixedSingle,         ///< cached 2x2 on qubit0
    kFusedSingle,         ///< run of >= 2 cached 2x2s on qubit0, one pass
    kCnot,                ///< cached X on qubit1 controlled on qubit0
    kCzGate,              ///< one CZ on (qubit0, qubit1): sign flips
    kFixedTwo,            ///< cached 4x4 on (qubit0, qubit1)
    kCzLadder,            ///< >= 2 CZs on distinct (k, k+1) pairs, one pass
  };

  struct PlanOp {
    Kernel kernel = Kernel::kFixedSingle;
    gates::Axis axis = gates::Axis::kX;  ///< rotation kernels only
    std::uint32_t qubit0 = 0;
    std::uint32_t qubit1 = 0;
    std::uint32_t param = 0;        ///< rotation kernels: parameter index
    /// Fixed kernels: matrix-pool index; kCzLadder: ladder-pool index.
    std::uint32_t matrix = 0;
    std::uint32_t fused_begin = 0;  ///< kFusedSingle: offset into run list
    /// kFusedSingle, kCzLadder: source gates the op covers.
    std::uint32_t fused_count = 0;
    std::uint32_t source_index = 0;  ///< first source op lowered here
  };

  struct Stats {
    std::size_t source_ops = 0;        ///< operations in the source circuit
    std::size_t plan_ops = 0;          ///< kernel ops after lowering
    std::size_t fused_runs = 0;        ///< kFusedSingle ops emitted
    std::size_t fused_source_ops = 0;  ///< source ops inside fused runs
    std::size_t cz_ladders = 0;        ///< kCzLadder ops emitted
    std::size_t cz_ladder_source_ops = 0;  ///< source CZs inside ladders
    std::size_t rotation_ops = 0;      ///< parameterized kernel ops
    std::size_t cached_matrices = 0;   ///< distinct constant matrices cached
  };

  /// Lowers `circuit`. Throws InvalidArgument when a custom gate matrix
  /// has the wrong dimensions for its kind, so such a circuit cannot be
  /// executed at all.
  [[nodiscard]] static std::shared_ptr<const CompiledCircuit> compile(
      const Circuit& circuit);

  // --- ExecutionPlan -------------------------------------------------------

  [[nodiscard]] std::size_t source_op_for_parameter(
      std::size_t param_index) const noexcept override;

  // --- whole-program execution ---------------------------------------------

  /// Runs the lowered program from |0...0>.
  [[nodiscard]] StateVector simulate(std::span<const double> params) const;

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_parameters() const noexcept {
    return num_params_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // --- read-only introspection (static analysis, schedulers) ---------------
  //
  // Views into the lowered program. The spans alias plan-owned storage and
  // stay valid for the plan's lifetime. The PlanVerifier (analysis layer)
  // checks these against the source circuit without executing either; a
  // future scheduler can partition the op stream the same way.

  /// The lowered kernel-op stream, in execution order.
  [[nodiscard]] std::span<const PlanOp> plan_ops() const noexcept {
    return plan_ops_;
  }

  /// One CZ ladder, deduplicated by mask: what apply_cz_ladder needs.
  /// The ladder is diagonal and self-inverse, so it has no inverse entry.
  struct CzLadder {
    std::uint64_t mask = 0;  ///< bit k set: CZ(k, k+1) is in the ladder
    /// signs[w] = cz_ladder_sign_word(mask, w).
    std::array<std::uint64_t, kCzLadderSignWords> signs{};
  };

  /// The deduplicated constant-matrix pool. `single` / `single_inverse`
  /// are indexed by PlanOp::matrix (kFixedSingle, kCnot) and by the
  /// `fused` run list (kFusedSingle); `two` / `two_inverse` by
  /// PlanOp::matrix (kFixedTwo); `cz_ladders` by PlanOp::matrix
  /// (kCzLadder). Forward and inverse entries share one indexing.
  struct MatrixPool {
    std::span<const gates::Mat2> single;
    std::span<const gates::Mat2> single_inverse;
    std::span<const ComplexMatrix> two;
    std::span<const ComplexMatrix> two_inverse;
    std::span<const std::uint32_t> fused;  ///< pool2 indices of fused runs
    std::span<const CzLadder> cz_ladders;
  };
  [[nodiscard]] MatrixPool matrix_pool() const noexcept {
    return {pool2_, pool2_inv_, pool4_, pool4_inv_, fused_, cz_ladders_};
  }

  /// One parameter's lowering: the source op and plan op consuming it.
  /// Both are ExecutionPlan::kNoOperation when nothing consumes the
  /// parameter; plan_op alone is kNoOperation when the parameter is
  /// consumed more than once. The circuit builders give every parameter
  /// exactly one consumer, so either case means a corrupted circuit.
  struct ParamBinding {
    std::size_t source_op = kNoOperation;
    std::size_t plan_op = kNoOperation;
  };

  /// The full binding table, one entry per parameter.
  [[nodiscard]] std::vector<ParamBinding> param_bindings() const;

  /// Full reverse-mode ("adjoint") pass: forward run, value = <phi|H|phi>,
  /// then the inverse double sweep accumulating dC/dtheta into `gradient`
  /// (with +=, so callers pass a zeroed span). Each parameterized op's
  /// forward and inverse rotation entries are computed once per call and
  /// shared by the forward pass, the derivative, and both inverse
  /// applications; an op-by-op sweep evaluates that trig four times per
  /// op. The arithmetic applied to the states is otherwise identical, so
  /// value and gradient match the op-by-op sweep exactly.
  double adjoint_value_and_gradient(const Observable& observable,
                                    std::span<const double> params,
                                    std::span<double> gradient) const;

  // --- per-op execution (gradient engines) ---------------------------------

  [[nodiscard]] std::size_t num_plan_ops() const noexcept {
    return plan_ops_.size();
  }

  /// Applies plan ops [begin, end) in order. Throws InvalidArgument when
  /// the register width or the parameter count does not match the plan.
  void apply_plan_ops(StateVector& state, std::span<const double> params,
                      std::size_t begin, std::size_t end) const;

  void apply_plan_op(std::size_t k, StateVector& state,
                     std::span<const double> params) const;

  void apply_plan_op_inverse(std::size_t k, StateVector& state,
                             std::span<const double> params) const;

  /// Applies the inverse of plan op `k` to both states, computing any
  /// angle-dependent entries once (the adjoint double sweep walks two
  /// states through every inverse).
  void apply_plan_op_inverse_pair(std::size_t k, StateVector& a,
                                  StateVector& b,
                                  std::span<const double> params) const;

  /// dst <- dU_k/dtheta |src> (out of place; `k` must be parameterized).
  void apply_plan_op_derivative(std::size_t k, const StateVector& src,
                                StateVector& dst,
                                std::span<const double> params) const;

  /// Applies parameterized plan op `k` with an explicitly bound angle
  /// (parameter-shift evaluations bind params[param] + shift).
  void apply_plan_op_with_angle(std::size_t k, StateVector& state,
                                double theta) const;

  [[nodiscard]] bool plan_op_is_parameterized(std::size_t k) const noexcept;

  /// Parameter index consumed by plan op `k` (parameterized ops only).
  [[nodiscard]] std::size_t plan_op_parameter(std::size_t k) const;

  /// Plan op consuming `param_index`, or ExecutionPlan::kNoOperation.
  [[nodiscard]] std::size_t plan_op_for_parameter(
      std::size_t param_index) const noexcept;

 private:
  CompiledCircuit() = default;

  // Test-only corruption hook (qbarren/exec/plan_testing.hpp): the
  // PlanVerifier's negative-path tests seed plan corruptions through it.
  friend class PlanMutationHook;
  friend std::vector<double> shifted_expectations(
      const CompiledCircuit& plan, const Observable& observable,
      std::span<const double> params, std::span<const ShiftSpec> specs);

  /// Applies plan ops [begin, end) in order, each parameterized op k with
  /// the precomputed rotation entries `entries[k]`. Back-to-back rotations
  /// on one qubit inside the range (HEA layers put RX then RY) run as one
  /// apply_rotation_pair pass, bit-identical to applying them one by one.
  void apply_plan_ops_with_entries(StateVector& state,
                                   std::span<const gates::Mat2> entries,
                                   std::span<const double> params,
                                   std::size_t begin, std::size_t end) const;

  std::size_t num_qubits_ = 0;
  std::size_t num_params_ = 0;
  std::vector<PlanOp> plan_ops_;
  std::vector<gates::Mat2> pool2_;      ///< cached 2x2 entries (forward)
  std::vector<gates::Mat2> pool2_inv_;  ///< their inverses, same indexing
  std::vector<ComplexMatrix> pool4_;    ///< cached 4x4 matrices (forward)
  std::vector<ComplexMatrix> pool4_inv_;
  std::vector<std::uint32_t> fused_;  ///< pool2 indices of fused runs
  std::vector<CzLadder> cz_ladders_;  ///< kCzLadder pool, one per mask
  std::vector<std::size_t> param_source_op_;   ///< param -> source op
  std::vector<std::uint32_t> param_plan_op_;   ///< param -> plan op
  Stats stats_;
};

// --- plan attachment -------------------------------------------------------

/// Debug/verification hook fired by plan_for() right after a freshly
/// compiled plan is attached (cache hits — circuits that already carry a
/// plan — do not re-fire). Installed by the analysis layer's
/// ScopedPlanVerification so every lowering in a run is statically checked
/// exactly once. Returns the previously installed hook so scopes can
/// restore it. Thread-safe; pass nullptr to clear. The hook may throw —
/// plan_for() propagates the exception to its caller (the plan stays
/// attached, so a non-throwing retry does not re-fire the hook).
using PlanAttachHook =
    std::function<void(const Circuit&, const CompiledCircuit&)>;
PlanAttachHook set_plan_attach_hook(PlanAttachHook hook);

/// The plan attached to `circuit`, compiling and attaching one on first
/// use; never nullptr. Throws compile()'s InvalidArgument when the circuit
/// cannot be lowered (malformed custom gate), attaching nothing.
[[nodiscard]] std::shared_ptr<const CompiledCircuit> plan_for(
    const Circuit& circuit);

/// Runs `circuit` from |0...0> with `params` bound: plan_for(circuit)
/// ->simulate(params).
[[nodiscard]] StateVector simulate(const Circuit& circuit,
                                   std::span<const double> params);

// --- prefix-state reuse for single-parameter partials ----------------------

/// Evaluates the cost at parameter vectors that differ from a base vector
/// only in one entry. The state before the unique op consuming that
/// parameter is simulated once at construction; each evaluation re-runs
/// only that op and the suffix. For the Fig 5a hot path — the partial with
/// respect to the LAST parameter — the suffix is (nearly) empty, so each
/// of the two shift evaluations costs one gate instead of a full forward
/// pass. Throws InvalidArgument when the plan records no unique consuming
/// op for the parameter (a corrupted plan).
class PartialEvaluator {
 public:
  PartialEvaluator(std::shared_ptr<const CompiledCircuit> plan,
                   const Observable& observable,
                   std::span<const double> params, std::size_t index);

  /// Cost at params with params[index] replaced by params[index] + delta.
  [[nodiscard]] double operator()(double delta);

 private:
  std::shared_ptr<const CompiledCircuit> plan_;
  const Observable& observable_;
  std::vector<double> params_;
  std::size_t index_;
  std::size_t plan_op_;
  StateVector prefix_;
  StateVector work_;
};

/// One shifted evaluation: the cost at `params` with
/// params[param] += delta.
struct ShiftSpec {
  std::size_t param = 0;
  double delta = 0.0;
};

/// Evaluates every spec's shifted cost, each one byte-identical to
/// PartialEvaluator(plan, observable, params, spec.param)(spec.delta), in
/// one walk of the op stream: a base state advances once with the
/// unshifted parameters, and at each spec's consuming op a copy of it
/// takes the shifted op and runs the suffix. The suffix reads rotation
/// entries computed once per call instead of once per evaluation.
/// Results are returned in spec order. Throws InvalidArgument when a
/// spec's parameter is out of range or has no unique consuming op.
[[nodiscard]] std::vector<double> shifted_expectations(
    const CompiledCircuit& plan, const Observable& observable,
    std::span<const double> params, std::span<const ShiftSpec> specs);

}  // namespace qbarren::exec
