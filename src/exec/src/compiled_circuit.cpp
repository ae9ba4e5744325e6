#include "qbarren/exec/compiled_circuit.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "qbarren/exec/kernels.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren::exec {

namespace {

constexpr std::uint32_t kNoIndex32 = static_cast<std::uint32_t>(-1);

// Plan-attach hook: shared_ptr so plan_for can invoke a stable copy
// outside the lock while another thread swaps the hook.
std::mutex g_attach_hook_mutex;
std::shared_ptr<const PlanAttachHook> g_attach_hook;  // NOLINT(cert-err58-cpp)

std::shared_ptr<const PlanAttachHook> current_attach_hook() {
  const std::lock_guard<std::mutex> lock(g_attach_hook_mutex);
  return g_attach_hook;
}

// Dedup key for cached matrices: everything that determines an op's dense
// matrix (qubit placement does not).
using PoolKey = std::tuple<int, int, std::uint64_t, std::size_t>;

PoolKey key_for(const Operation& op) {
  const bool custom =
      op.kind == OpKind::kCustomSingle || op.kind == OpKind::kCustomTwo;
  return {static_cast<int>(op.kind), static_cast<int>(op.axis),
          std::bit_cast<std::uint64_t>(op.fixed_angle),
          custom ? op.custom_index : 0};
}

std::uint32_t u32(std::size_t v) { return static_cast<std::uint32_t>(v); }

/// The 16 row-major entries of a 4x4 pool matrix, as apply_mat4_from reads
/// them.
std::span<const Complex, 16> entries4(const ComplexMatrix& m) {
  QBARREN_REQUIRE(m.rows() == 4 && m.cols() == 4,
                  "CompiledCircuit: two-qubit matrix must be 4x4");
  return std::span<const Complex, 16>(m.data().data(), 16);
}

/// |1><1| (x) dR/dtheta, zero on the control-clear subspace: the derivative
/// of a controlled rotation as a 4x4, row-major (matrix bit 0 = control).
std::array<Complex, 16> controlled_derivative(const gates::Mat2& dr) {
  std::array<Complex, 16> m{};
  m[4 * 1 + 1] = dr.m00;
  m[4 * 1 + 3] = dr.m01;
  m[4 * 3 + 1] = dr.m10;
  m[4 * 3 + 3] = dr.m11;
  return m;
}

}  // namespace

std::shared_ptr<const CompiledCircuit> CompiledCircuit::compile(
    const Circuit& circuit) {
  std::shared_ptr<CompiledCircuit> plan(new CompiledCircuit());
  plan->num_qubits_ = circuit.num_qubits();
  plan->num_params_ = circuit.num_parameters();
  const std::vector<Operation>& ops = circuit.operations();
  plan->stats_.source_ops = ops.size();
  plan->param_source_op_.assign(plan->num_params_, kNoOperation);
  plan->param_plan_op_.assign(plan->num_params_, kNoIndex32);
  plan->plan_ops_.reserve(ops.size());  // lowering never adds ops

  std::map<PoolKey, std::uint32_t> pool2_index;
  std::map<PoolKey, std::uint32_t> pool4_index;
  std::map<std::uint64_t, std::uint32_t> ladder_index;
  std::vector<std::uint8_t> param_seen(plan->num_params_, 0);

  // Pending run of adjacent constant single-qubit gates on one qubit.
  std::vector<std::uint32_t> run;
  std::size_t run_qubit = 0;
  std::size_t run_first = 0;

  auto flush_run = [&] {
    if (run.empty()) return;
    PlanOp op;
    op.qubit0 = u32(run_qubit);
    op.source_index = u32(run_first);
    if (run.size() == 1) {
      op.kernel = Kernel::kFixedSingle;
      op.matrix = run[0];
    } else {
      op.kernel = Kernel::kFusedSingle;
      op.fused_begin = u32(plan->fused_.size());
      op.fused_count = u32(run.size());
      plan->fused_.insert(plan->fused_.end(), run.begin(), run.end());
      ++plan->stats_.fused_runs;
      plan->stats_.fused_source_ops += run.size();
    }
    plan->plan_ops_.push_back(op);
    run.clear();
  };

  auto intern2 = [&](const Operation& op, const gates::Mat2& fwd,
                     const gates::Mat2& inv) {
    auto [it, inserted] =
        pool2_index.try_emplace(key_for(op), u32(plan->pool2_.size()));
    if (inserted) {
      plan->pool2_.push_back(fwd);
      plan->pool2_inv_.push_back(inv);
    }
    return it->second;
  };

  auto intern4 = [&](const Operation& op, const ComplexMatrix& fwd,
                     const ComplexMatrix& inv) {
    auto [it, inserted] =
        pool4_index.try_emplace(key_for(op), u32(plan->pool4_.size()));
    if (inserted) {
      plan->pool4_.push_back(fwd);
      plan->pool4_inv_.push_back(inv);
    }
    return it->second;
  };

  auto intern_ladder = [&](std::uint64_t mask) {
    auto [it, inserted] =
        ladder_index.try_emplace(mask, u32(plan->cz_ladders_.size()));
    if (inserted) {
      CzLadder& ladder = plan->cz_ladders_.emplace_back();
      ladder.mask = mask;
      for (std::size_t w = 0; w < kCzLadderSignWords; ++w) {
        ladder.signs[w] = cz_ladder_sign_word(mask, w);
      }
    }
    return it->second;
  };

  // First consumer wins, matching the linear scan's first-match
  // semantics; a parameter consumed twice (not producible by the
  // builders) records no plan op, which the shift evaluators refuse.
  auto record_param = [&](std::size_t p, std::size_t source) {
    if (param_seen[p] == 0) {
      param_seen[p] = 1;
      plan->param_source_op_[p] = source;
      plan->param_plan_op_[p] = u32(plan->plan_ops_.size());
    } else {
      plan->param_plan_op_[p] = kNoIndex32;
    }
  };

  // Appends a constant single-qubit gate: extends the pending fused run
  // when it targets the same qubit as the previous constant gate.
  auto push_constant1q = [&](const Operation& op, std::size_t i,
                             std::uint32_t matrix) {
    if (!run.empty() && run_qubit != op.qubit0) flush_run();
    if (run.empty()) {
      run_qubit = op.qubit0;
      run_first = i;
    }
    run.push_back(matrix);
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    switch (op.kind) {
      case OpKind::kRotation: {
        flush_run();
        record_param(op.param_index, i);
        PlanOp p;
        p.kernel = Kernel::kRotation;
        p.axis = op.axis;
        p.qubit0 = u32(op.qubit0);
        p.param = u32(op.param_index);
        p.source_index = u32(i);
        plan->plan_ops_.push_back(p);
        ++plan->stats_.rotation_ops;
        break;
      }
      case OpKind::kControlledRotation: {
        flush_run();
        record_param(op.param_index, i);
        PlanOp p;
        p.kernel = Kernel::kControlledRotation;
        p.axis = op.axis;
        p.qubit0 = u32(op.qubit0);
        p.qubit1 = u32(op.qubit1);
        p.param = u32(op.param_index);
        p.source_index = u32(i);
        plan->plan_ops_.push_back(p);
        ++plan->stats_.rotation_ops;
        break;
      }
      case OpKind::kFixedRotation: {
        const gates::Mat2 fwd =
            gates::rotation_entries(op.axis, op.fixed_angle);
        // The inverse is rotation(axis, -angle).
        const gates::Mat2 inv =
            gates::rotation_entries(op.axis, -op.fixed_angle);
        push_constant1q(op, i, intern2(op, fwd, inv));
        break;
      }
      case OpKind::kHadamard:
      case OpKind::kPauliX:
      case OpKind::kPauliY:
      case OpKind::kPauliZ: {
        const ComplexMatrix& m = op.kind == OpKind::kHadamard ? gates::hadamard()
                                 : op.kind == OpKind::kPauliX ? gates::pauli_x()
                                 : op.kind == OpKind::kPauliY ? gates::pauli_y()
                                                              : gates::pauli_z();
        const gates::Mat2 fwd = gates::entries_of(m);
        // Involutions: the inverse re-applies the forward gate.
        push_constant1q(op, i, intern2(op, fwd, fwd));
        break;
      }
      case OpKind::kSGate:
      case OpKind::kTGate: {
        const ComplexMatrix& m =
            op.kind == OpKind::kSGate ? gates::s_gate() : gates::t_gate();
        push_constant1q(
            op, i, intern2(op, gates::entries_of(m),
                           gates::entries_of(adjoint(m))));
        break;
      }
      case OpKind::kCustomSingle: {
        const ComplexMatrix& m = circuit.custom_gate(op).matrix;
        QBARREN_REQUIRE(m.rows() == 2 && m.cols() == 2,
                        "CompiledCircuit: custom single-qubit matrix must "
                        "be 2x2");
        push_constant1q(
            op, i, intern2(op, gates::entries_of(m),
                           gates::entries_of(adjoint(m))));
        break;
      }
      case OpKind::kCz: {
        flush_run();
        // The longest run of CZs from here on distinct neighbour pairs
        // (k, k+1) whose bit k fits the 64-bit mask.
        std::uint64_t mask = 0;
        std::size_t end = i;
        for (; end < ops.size() && ops[end].kind == OpKind::kCz; ++end) {
          const std::size_t low = std::min(ops[end].qubit0, ops[end].qubit1);
          if (std::max(ops[end].qubit0, ops[end].qubit1) != low + 1 ||
              low >= 63 || (mask >> low & 1u) != 0) {
            break;
          }
          mask |= std::uint64_t{1} << low;
        }
        PlanOp p;
        p.source_index = u32(i);
        if (end - i >= 2) {
          p.kernel = Kernel::kCzLadder;
          p.matrix = intern_ladder(mask);
          p.fused_count = u32(end - i);
          ++plan->stats_.cz_ladders;
          plan->stats_.cz_ladder_source_ops += end - i;
          i = end - 1;  // the loop resumes after the ladder
        } else {
          p.kernel = Kernel::kCzGate;
          p.qubit0 = u32(op.qubit0);
          p.qubit1 = u32(op.qubit1);
        }
        plan->plan_ops_.push_back(p);
        break;
      }
      case OpKind::kCnot: {
        flush_run();
        PlanOp p;
        p.kernel = Kernel::kCnot;
        p.qubit0 = u32(op.qubit0);  // control
        p.qubit1 = u32(op.qubit1);
        const gates::Mat2 x = gates::entries_of(gates::pauli_x());
        p.matrix = intern2(op, x, x);
        p.source_index = u32(i);
        plan->plan_ops_.push_back(p);
        break;
      }
      case OpKind::kSwap: {
        flush_run();
        PlanOp p;
        p.kernel = Kernel::kFixedTwo;
        // Symmetric: lowered on (min, max) for apply_mat4_from.
        p.qubit0 = u32(std::min(op.qubit0, op.qubit1));
        p.qubit1 = u32(std::max(op.qubit0, op.qubit1));
        p.matrix = intern4(op, gates::swap(), gates::swap());
        p.source_index = u32(i);
        plan->plan_ops_.push_back(p);
        break;
      }
      case OpKind::kCustomTwo: {
        flush_run();
        const ComplexMatrix& m = circuit.custom_gate(op).matrix;
        QBARREN_REQUIRE(m.rows() == 4 && m.cols() == 4,
                        "CompiledCircuit: custom two-qubit matrix must be "
                        "4x4");
        PlanOp p;
        p.kernel = Kernel::kFixedTwo;
        p.qubit0 = u32(op.qubit0);  // builder guarantees qubit0 < qubit1
        p.qubit1 = u32(op.qubit1);
        p.matrix = intern4(op, m, adjoint(m));
        p.source_index = u32(i);
        plan->plan_ops_.push_back(p);
        break;
      }
    }
  }
  flush_run();

  plan->stats_.plan_ops = plan->plan_ops_.size();
  plan->stats_.cached_matrices = plan->pool2_.size() + plan->pool4_.size();
  return plan;
}

std::vector<CompiledCircuit::ParamBinding> CompiledCircuit::param_bindings()
    const {
  std::vector<ParamBinding> bindings(num_params_);
  for (std::size_t p = 0; p < num_params_; ++p) {
    bindings[p].source_op = param_source_op_[p];
    bindings[p].plan_op = plan_op_for_parameter(p);
  }
  return bindings;
}

std::size_t CompiledCircuit::source_op_for_parameter(
    std::size_t param_index) const noexcept {
  if (param_index >= param_source_op_.size()) return kNoOperation;
  return param_source_op_[param_index];
}

StateVector CompiledCircuit::simulate(std::span<const double> params) const {
  StateVector state(num_qubits_);
  apply_plan_ops(state, params, 0, plan_ops_.size());
  return state;
}

double CompiledCircuit::adjoint_value_and_gradient(
    const Observable& observable, std::span<const double> params,
    std::span<double> gradient) const {
  QBARREN_REQUIRE(params.size() == num_params_,
                  "CompiledCircuit::adjoint_value_and_gradient: parameter "
                  "count mismatch");
  QBARREN_REQUIRE(gradient.size() == num_params_,
                  "CompiledCircuit::adjoint_value_and_gradient: gradient "
                  "span size mismatch");
  const std::size_t n = plan_ops_.size();

  // Rotation-entry table for this parameter binding: one forward and one
  // inverse trig evaluation per parameterized op, reused everywhere below.
  // Thread-local scratch: the tables are large enough (64 bytes per plan
  // op, twice) that reallocating per gradient call shows up in profiles.
  thread_local std::vector<gates::Mat2> fwd;
  thread_local std::vector<gates::Mat2> inv;
  fwd.resize(n);
  inv.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const PlanOp& op = plan_ops_[k];
    if (op.kernel == Kernel::kRotation ||
        op.kernel == Kernel::kControlledRotation) {
      fwd[k] = gates::rotation_entries(op.axis, params[op.param]);
      inv[k] = gates::rotation_entries(op.axis, -params[op.param]);
    }
  }

  StateVector phi(num_qubits_);
  apply_plan_ops_with_entries(phi, fwd, params, 0, n);
  StateVector lambda = observable.apply(phi);
  const double value = phi.inner_product(lambda).real();

  StateVector scratch(num_qubits_);
  for (std::size_t k = n; k-- > 0;) {
    const PlanOp& op = plan_ops_[k];
    if (op.kernel == Kernel::kRotation) {
      const gates::Mat2 dr =
          gates::rotation_derivative_entries_from(op.axis, fwd[k]);
      // Combined step: inverse on phi, <lambda| dR |phi_{k-1}>, inverse on
      // lambda — one kernel instead of three passes over the amplitudes.
      gradient[op.param] +=
          2.0 *
          adjoint_rotation_sweep(phi, lambda, op.axis, inv[k], dr, op.qubit0)
              .real();
    } else if (op.kernel == Kernel::kControlledRotation) {
      apply_controlled_mat2(phi, inv[k], op.qubit0, op.qubit1);
      const gates::Mat2 dr =
          gates::rotation_derivative_entries_from(op.axis, fwd[k]);
      apply_mat4_from(scratch, phi, controlled_derivative(dr), op.qubit0,
                      op.qubit1);
      gradient[op.param] += 2.0 * lambda.inner_product(scratch).real();
      apply_controlled_mat2(lambda, inv[k], op.qubit0, op.qubit1);
    } else {
      apply_plan_op_inverse_pair(k, phi, lambda, params);
    }
  }
  return value;
}

void CompiledCircuit::apply_plan_ops(StateVector& state,
                                     std::span<const double> params,
                                     std::size_t begin,
                                     std::size_t end) const {
  QBARREN_REQUIRE(begin <= end && end <= plan_ops_.size(),
                  "CompiledCircuit::apply_plan_ops: range out of bounds");
  QBARREN_REQUIRE(state.num_qubits() == num_qubits_,
                  "CompiledCircuit::apply_plan_ops: register width mismatch");
  QBARREN_REQUIRE(params.size() == num_params_,
                  "CompiledCircuit::apply_plan_ops: parameter count "
                  "mismatch");
  for (std::size_t k = begin; k < end; ++k) {
    apply_plan_op(k, state, params);
  }
}

void CompiledCircuit::apply_plan_ops_with_entries(
    StateVector& state, std::span<const gates::Mat2> entries,
    std::span<const double> params, std::size_t begin,
    std::size_t end) const {
  for (std::size_t k = begin; k < end; ++k) {
    const PlanOp& op = plan_ops_[k];
    if (op.kernel == Kernel::kRotation) {
      if (k + 1 < end && plan_ops_[k + 1].kernel == Kernel::kRotation &&
          plan_ops_[k + 1].qubit0 == op.qubit0) {
        apply_rotation_pair(state, op.axis, entries[k], plan_ops_[k + 1].axis,
                            entries[k + 1], op.qubit0);
        ++k;
      } else {
        apply_rotation_mat2(state, op.axis, entries[k], op.qubit0);
      }
    } else if (op.kernel == Kernel::kControlledRotation) {
      apply_controlled_mat2(state, entries[k], op.qubit0, op.qubit1);
    } else {
      apply_plan_op(k, state, params);
    }
  }
}

void CompiledCircuit::apply_plan_op(std::size_t k, StateVector& state,
                                    std::span<const double> params) const {
  QBARREN_REQUIRE(k < plan_ops_.size(),
                  "CompiledCircuit::apply_plan_op: index out of range");
  const PlanOp& op = plan_ops_[k];
  switch (op.kernel) {
    case Kernel::kRotation:
      apply_rotation(state, op.axis, params[op.param], op.qubit0);
      return;
    case Kernel::kControlledRotation:
      apply_controlled_rotation(state, op.axis, params[op.param], op.qubit0,
                                op.qubit1);
      return;
    case Kernel::kFixedSingle:
      apply_mat2(state, pool2_[op.matrix], op.qubit0);
      return;
    case Kernel::kFusedSingle:
      apply_mat2_run(state, pool2_.data(), fused_.data() + op.fused_begin,
                     op.fused_count, /*reverse=*/false, op.qubit0);
      return;
    case Kernel::kCnot:
      apply_controlled_mat2(state, pool2_[op.matrix], op.qubit0, op.qubit1);
      return;
    case Kernel::kCzGate:
      apply_cz(state, op.qubit0, op.qubit1);
      return;
    case Kernel::kFixedTwo:
      apply_mat4_from(state, state, entries4(pool4_[op.matrix]), op.qubit0,
                      op.qubit1);
      return;
    case Kernel::kCzLadder:
      apply_cz_ladder(state, cz_ladders_[op.matrix].mask,
                      cz_ladders_[op.matrix].signs.data());
      return;
  }
  throw InvalidArgument("CompiledCircuit::apply_plan_op: unknown kernel");
}

void CompiledCircuit::apply_plan_op_inverse(
    std::size_t k, StateVector& state, std::span<const double> params) const {
  QBARREN_REQUIRE(k < plan_ops_.size(),
                  "CompiledCircuit::apply_plan_op_inverse: index out of "
                  "range");
  const PlanOp& op = plan_ops_[k];
  switch (op.kernel) {
    case Kernel::kRotation:
      apply_rotation(state, op.axis, -params[op.param], op.qubit0);
      return;
    case Kernel::kControlledRotation:
      apply_controlled_rotation(state, op.axis, -params[op.param], op.qubit0,
                                op.qubit1);
      return;
    case Kernel::kFixedSingle:
      apply_mat2(state, pool2_inv_[op.matrix], op.qubit0);
      return;
    case Kernel::kFusedSingle:
      // Inverse of a product: inverses in reverse order.
      apply_mat2_run(state, pool2_inv_.data(),
                     fused_.data() + op.fused_begin, op.fused_count,
                     /*reverse=*/true, op.qubit0);
      return;
    case Kernel::kCnot:
      apply_controlled_mat2(state, pool2_inv_[op.matrix], op.qubit0,
                            op.qubit1);
      return;
    case Kernel::kCzGate:
      apply_cz(state, op.qubit0, op.qubit1);
      return;
    case Kernel::kFixedTwo:
      apply_mat4_from(state, state, entries4(pool4_inv_[op.matrix]),
                      op.qubit0, op.qubit1);
      return;
    case Kernel::kCzLadder:  // self-inverse
      apply_cz_ladder(state, cz_ladders_[op.matrix].mask,
                      cz_ladders_[op.matrix].signs.data());
      return;
  }
  throw InvalidArgument(
      "CompiledCircuit::apply_plan_op_inverse: unknown kernel");
}

void CompiledCircuit::apply_plan_op_inverse_pair(
    std::size_t k, StateVector& a, StateVector& b,
    std::span<const double> params) const {
  QBARREN_REQUIRE(k < plan_ops_.size(),
                  "CompiledCircuit::apply_plan_op_inverse_pair: index out "
                  "of range");
  const PlanOp& op = plan_ops_[k];
  // For rotations, compute the (trig-bearing) entries once for both
  // states; everything else applies cached matrices anyway.
  if (op.kernel == Kernel::kRotation) {
    const gates::Mat2 e =
        gates::rotation_entries(op.axis, -params[op.param]);
    apply_rotation_mat2(a, op.axis, e, op.qubit0);
    apply_rotation_mat2(b, op.axis, e, op.qubit0);
    return;
  }
  if (op.kernel == Kernel::kControlledRotation) {
    const gates::Mat2 e =
        gates::rotation_entries(op.axis, -params[op.param]);
    apply_controlled_mat2(a, e, op.qubit0, op.qubit1);
    apply_controlled_mat2(b, e, op.qubit0, op.qubit1);
    return;
  }
  if (op.kernel == Kernel::kCzGate) {
    // Self-inverse, and negation-only: flip both states in one pass.
    apply_cz_pair(a, b, op.qubit0, op.qubit1);
    return;
  }
  apply_plan_op_inverse(k, a, params);
  apply_plan_op_inverse(k, b, params);
}

void CompiledCircuit::apply_plan_op_derivative(
    std::size_t k, const StateVector& src, StateVector& dst,
    std::span<const double> params) const {
  QBARREN_REQUIRE(k < plan_ops_.size(),
                  "CompiledCircuit::apply_plan_op_derivative: index out of "
                  "range");
  QBARREN_REQUIRE(dst.dimension() == src.dimension(),
                  "CompiledCircuit::apply_plan_op_derivative: dimension "
                  "mismatch");
  const PlanOp& op = plan_ops_[k];
  QBARREN_REQUIRE(plan_op_is_parameterized(k),
                  "CompiledCircuit::apply_plan_op_derivative: op is not a "
                  "trainable rotation");
  const gates::Mat2 dr =
      gates::rotation_derivative_entries(op.axis, params[op.param]);
  if (op.kernel == Kernel::kRotation) {
    apply_mat2_from(dst, src, dr, op.qubit0);
    return;
  }
  apply_mat4_from(dst, src, controlled_derivative(dr), op.qubit0, op.qubit1);
}

void CompiledCircuit::apply_plan_op_with_angle(std::size_t k,
                                               StateVector& state,
                                               double theta) const {
  QBARREN_REQUIRE(k < plan_ops_.size(),
                  "CompiledCircuit::apply_plan_op_with_angle: index out of "
                  "range");
  const PlanOp& op = plan_ops_[k];
  QBARREN_REQUIRE(plan_op_is_parameterized(k),
                  "CompiledCircuit::apply_plan_op_with_angle: op is not a "
                  "trainable rotation");
  if (op.kernel == Kernel::kRotation) {
    apply_rotation(state, op.axis, theta, op.qubit0);
    return;
  }
  apply_controlled_rotation(state, op.axis, theta, op.qubit0, op.qubit1);
}

bool CompiledCircuit::plan_op_is_parameterized(std::size_t k) const noexcept {
  if (k >= plan_ops_.size()) return false;
  const Kernel kernel = plan_ops_[k].kernel;
  return kernel == Kernel::kRotation || kernel == Kernel::kControlledRotation;
}

std::size_t CompiledCircuit::plan_op_parameter(std::size_t k) const {
  QBARREN_REQUIRE(plan_op_is_parameterized(k),
                  "CompiledCircuit::plan_op_parameter: op is not "
                  "parameterized");
  return plan_ops_[k].param;
}

std::size_t CompiledCircuit::plan_op_for_parameter(
    std::size_t param_index) const noexcept {
  if (param_index >= param_plan_op_.size() ||
      param_plan_op_[param_index] == kNoIndex32) {
    return kNoOperation;
  }
  return param_plan_op_[param_index];
}

// --- plan attachment -------------------------------------------------------

PlanAttachHook set_plan_attach_hook(PlanAttachHook hook) {
  std::shared_ptr<const PlanAttachHook> next =
      hook ? std::make_shared<const PlanAttachHook>(std::move(hook))
           : nullptr;
  const std::lock_guard<std::mutex> lock(g_attach_hook_mutex);
  std::shared_ptr<const PlanAttachHook> previous =
      std::exchange(g_attach_hook, std::move(next));
  return previous ? *previous : PlanAttachHook{};
}

std::shared_ptr<const CompiledCircuit> plan_for(const Circuit& circuit) {
  if (auto attached = std::dynamic_pointer_cast<const CompiledCircuit>(
          circuit.execution_plan())) {
    return attached;
  }
  // An unlowerable circuit (malformed custom gate) throws here, before
  // anything is attached.
  std::shared_ptr<const CompiledCircuit> plan =
      CompiledCircuit::compile(circuit);
  circuit.attach_execution_plan(plan);
  // First attach only: re-requests hit the cache above and do not
  // re-verify.
  if (const auto hook = current_attach_hook()) {
    (*hook)(circuit, *plan);
  }
  return plan;
}

StateVector simulate(const Circuit& circuit, std::span<const double> params) {
  return plan_for(circuit)->simulate(params);
}

// --- prefix-state reuse ----------------------------------------------------

namespace {
const std::shared_ptr<const CompiledCircuit>& require_plan(
    const std::shared_ptr<const CompiledCircuit>& plan) {
  QBARREN_REQUIRE(plan != nullptr, "PartialEvaluator: plan must not be null");
  return plan;
}
}  // namespace

PartialEvaluator::PartialEvaluator(
    std::shared_ptr<const CompiledCircuit> plan, const Observable& observable,
    std::span<const double> params, std::size_t index)
    : plan_(require_plan(plan)),
      observable_(observable),
      params_(params.begin(), params.end()),
      index_(index),
      plan_op_(plan_->plan_op_for_parameter(index)),
      prefix_(plan_->num_qubits()),
      work_(plan_->num_qubits()) {
  QBARREN_REQUIRE(index_ < params_.size(),
                  "PartialEvaluator: parameter index out of range");
  QBARREN_REQUIRE(plan_op_ != ExecutionPlan::kNoOperation,
                  "PartialEvaluator: no unique plan op consumes the "
                  "parameter");
  // The ops before the consuming one do not read params[index], so this
  // state is valid for every shifted evaluation.
  plan_->apply_plan_ops(prefix_, params_, 0, plan_op_);
}

double PartialEvaluator::operator()(double delta) {
  work_ = prefix_;
  plan_->apply_plan_op_with_angle(plan_op_, work_, params_[index_] + delta);
  plan_->apply_plan_ops(work_, params_, plan_op_ + 1, plan_->num_plan_ops());
  return observable_.expectation(work_);
}

// --- the shared-prefix shift walk ------------------------------------------

std::vector<double> shifted_expectations(const CompiledCircuit& plan,
                                         const Observable& observable,
                                         std::span<const double> params,
                                         std::span<const ShiftSpec> specs) {
  QBARREN_REQUIRE(params.size() == plan.num_parameters(),
                  "shifted_expectations: parameter count mismatch");
  // (consuming plan op, spec) in walk order.
  std::vector<std::pair<std::size_t, std::size_t>> walk;
  walk.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    QBARREN_REQUIRE(specs[s].param < plan.num_parameters(),
                    "shifted_expectations: parameter index out of range");
    const std::size_t branch = plan.plan_op_for_parameter(specs[s].param);
    QBARREN_REQUIRE(branch != ExecutionPlan::kNoOperation,
                    "shifted_expectations: no unique plan op consumes the "
                    "parameter");
    walk.emplace_back(branch, s);
  }
  std::sort(walk.begin(), walk.end());

  const std::size_t num_ops = plan.num_plan_ops();
  std::vector<gates::Mat2> entries(num_ops);
  for (std::size_t k = 0; k < num_ops; ++k) {
    if (plan.plan_op_is_parameterized(k)) {
      const CompiledCircuit::PlanOp& op = plan.plan_ops_[k];
      entries[k] = gates::rotation_entries(op.axis, params[op.param]);
    }
  }

  std::vector<double> out(specs.size());
  // The base holds ops [0, base_pos) with the unshifted parameters — at a
  // spec's consuming op exactly PartialEvaluator's prefix state.
  StateVector base(plan.num_qubits());
  StateVector work(plan.num_qubits());
  std::size_t base_pos = 0;
  for (const auto& [branch, s] : walk) {
    plan.apply_plan_ops_with_entries(base, entries, params, base_pos, branch);
    base_pos = branch;
    work = base;
    plan.apply_plan_op_with_angle(branch, work,
                                  params[specs[s].param] + specs[s].delta);
    plan.apply_plan_ops_with_entries(work, entries, params, branch + 1,
                                     num_ops);
    out[s] = observable.expectation(work);
  }
  return out;
}

}  // namespace qbarren::exec
