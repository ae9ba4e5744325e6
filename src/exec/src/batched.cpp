#include "qbarren/exec/batched.hpp"

#include <algorithm>
#include <atomic>

#include "qbarren/common/error.hpp"
#include "qbarren/exec/batched_kernels.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren::exec {

namespace {
std::atomic<std::size_t> g_batch_limit{kBatchOff};
}  // namespace

void set_batch_limit(std::size_t limit) noexcept {
  g_batch_limit.store(limit, std::memory_order_relaxed);
}

std::size_t batch_limit() noexcept {
  return g_batch_limit.load(std::memory_order_relaxed);
}

bool batching_enabled() noexcept { return batch_limit() != kBatchOff; }

std::size_t resolve_batch_lanes(std::size_t limit,
                                std::size_t natural) noexcept {
  const std::size_t cap = limit == kBatchAuto ? kAutoBatchLanes : limit;
  return std::max<std::size_t>(1, std::min(cap, natural));
}

ScopedBatchLimit::ScopedBatchLimit(std::size_t limit)
    : previous_(batch_limit()) {
  set_batch_limit(limit);
}

ScopedBatchLimit::~ScopedBatchLimit() { set_batch_limit(previous_); }

namespace {

// Applies plan op `k` to lanes [0, lanes) with the UNSHIFTED parameters:
// rotation entries are computed once per op and shared by every lane (the
// serial suffix re-evaluates the trig per evaluation); per-lane arithmetic
// is the serial apply_plan_op's.
void apply_uniform(const CompiledCircuit& plan, std::size_t k,
                   BatchedStateVector& batch, std::size_t lanes,
                   std::span<const double> params) {
  using Kernel = CompiledCircuit::Kernel;
  const CompiledCircuit::PlanOp& op = plan.plan_ops()[k];
  if (op.kernel == Kernel::kRotation) {
    batched_apply_rotation_mat2(
        batch, lanes, op.axis,
        gates::rotation_entries(op.axis, params[op.param]), op.qubit0);
  } else if (op.kernel == Kernel::kControlledRotation) {
    batched_apply_controlled_mat2(
        batch, lanes, gates::rotation_entries(op.axis, params[op.param]),
        op.qubit0, op.qubit1);
  } else {
    plan.apply_plan_op_batch(k, batch, lanes, nullptr);
  }
}

}  // namespace

std::vector<double> shifted_expectations(const CompiledCircuit& plan,
                                         const Observable& observable,
                                         std::span<const double> params,
                                         std::span<const ShiftSpec> specs) {
  QBARREN_REQUIRE(params.size() == plan.num_parameters(),
                  "shifted_expectations: parameter count mismatch");
  std::vector<double> out(specs.size());
  if (specs.empty()) return out;

  // Group spec indices by parameter (one group per distinct parameter,
  // specs in input order within it); parameters without a unique consuming
  // plan op fall back to the serial whole-program path at the end, as
  // PartialEvaluator does.
  struct Group {
    std::size_t branch = 0;  ///< plan op consuming the parameter
    std::vector<std::size_t> specs;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> fallback;
  {
    const std::size_t num_params = plan.num_parameters();
    std::vector<std::size_t> group_of(num_params, ExecutionPlan::kNoOperation);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::size_t p = specs[s].param;
      QBARREN_REQUIRE(p < num_params,
                      "shifted_expectations: parameter index out of range");
      const std::size_t branch = plan.plan_op_for_parameter(p);
      if (branch == ExecutionPlan::kNoOperation) {
        fallback.push_back(s);
        continue;
      }
      if (group_of[p] == ExecutionPlan::kNoOperation) {
        group_of[p] = groups.size();
        groups.push_back(Group{branch, {}});
      }
      groups[group_of[p]].specs.push_back(s);
    }
  }
  // Distinct parameters have distinct consuming ops, so this order is
  // total: lanes spawn in stream order during the walk.
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.branch < b.branch; });

  std::size_t total_lanes = 0;
  for (const Group& g : groups) total_lanes += g.specs.size();
  const std::size_t lane_cap = resolve_batch_lanes(batch_limit(), total_lanes);

  const std::size_t num_qubits = plan.num_qubits();
  const std::size_t num_ops = plan.num_plan_ops();
  const std::span<const CompiledCircuit::PlanOp> ops = plan.plan_ops();
  using Kernel = CompiledCircuit::Kernel;

  // One base state advanced monotonically with the unshifted parameters:
  // at each chunk's branch ops it holds exactly the prefix PartialEvaluator
  // would simulate from scratch (same apply_plan_op sequence from |0...0>).
  StateVector base(num_qubits);
  StateVector scratch(num_qubits);
  std::size_t base_pos = 0;

  std::size_t gi = 0;
  while (gi < groups.size()) {
    // Greedy chunk: take whole parameter groups while the lane count fits
    // the cap (never splitting a group, so a 4-term parameter always
    // evaluates in one chunk).
    std::size_t gj = gi;
    std::size_t lanes = 0;
    while (gj < groups.size()) {
      const std::size_t width = groups[gj].specs.size();
      if (gj > gi && lanes + width > lane_cap) break;
      lanes += width;
      ++gj;
    }
    const std::size_t first_branch = groups[gi].branch;
    const std::size_t last_branch = groups[gj - 1].branch;
    plan.apply_plan_ops(base, params, base_pos, first_branch);

    BatchedStateVector lane_states(num_qubits, lanes);
    std::vector<std::size_t> lane_spec(lanes);
    std::size_t spawned = 0;
    std::size_t g = gi;

    std::size_t k = first_branch;
    while (k < num_ops) {
      const std::size_t next_spawn = g < gj ? groups[g].branch : num_ops;
      if (spawned > 0 && k != next_spawn && k + 1 != next_spawn &&
          k + 1 < num_ops && ops[k].kernel == Kernel::kRotation &&
          ops[k + 1].kernel == Kernel::kRotation &&
          ops[k + 1].qubit0 == ops[k].qubit0) {
        // Same-qubit rotation pair with no lane branching at either op:
        // both gates in one pass per lane, entries computed once for the
        // whole batch (bit-identical to two single applications, as the
        // adjoint forward pass's apply_rotation_pair).
        const gates::Mat2 first =
            gates::rotation_entries(ops[k].axis, params[ops[k].param]);
        const gates::Mat2 second =
            gates::rotation_entries(ops[k + 1].axis, params[ops[k + 1].param]);
        plan.apply_plan_op_batch_pair(k, lane_states, spawned, first, second);
        if (k < last_branch) plan.apply_plan_op(k, base, params);
        if (k + 1 < last_branch) plan.apply_plan_op(k + 1, base, params);
        k += 2;
        continue;
      }
      // Lanes spawned at earlier ops take op k with the unshifted angle...
      if (spawned > 0) {
        apply_uniform(plan, k, lane_states, spawned, params);
      }
      // ...then this op's own lanes branch off the base (which still holds
      // ops [0, k)) with the shifted angle, exactly `work_ = prefix_` plus
      // apply_plan_op_with_angle.
      if (k == next_spawn) {
        for (const std::size_t s : groups[g].specs) {
          scratch = base;
          plan.apply_plan_op_with_angle(
              k, scratch, params[specs[s].param] + specs[s].delta);
          lane_states.set_lane(spawned, scratch);
          lane_spec[spawned] = s;
          ++spawned;
        }
        ++g;
      }
      // The base only needs to advance while spawns remain in this chunk;
      // the next chunk continues it from base_pos.
      if (k < last_branch) {
        plan.apply_plan_op(k, base, params);
      }
      ++k;
    }
    base_pos = last_branch;

    for (std::size_t b = 0; b < spawned; ++b) {
      lane_states.extract_lane(b, scratch);
      out[lane_spec[b]] = observable.expectation(scratch);
    }
    gi = gj;
  }

  if (!fallback.empty()) {
    // Shared-parameter fallback, as PartialEvaluator's: whole program on a
    // temporarily shifted vector.
    std::vector<double> shifted(params.begin(), params.end());
    StateVector work(num_qubits);
    for (const std::size_t s : fallback) {
      const double saved = shifted[specs[s].param];
      shifted[specs[s].param] = saved + specs[s].delta;
      work.reset();
      plan.apply_plan_ops(work, shifted, 0, num_ops);
      shifted[specs[s].param] = saved;
      out[s] = observable.expectation(work);
    }
  }
  return out;
}

}  // namespace qbarren::exec
