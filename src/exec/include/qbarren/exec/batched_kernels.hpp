// Batched state-vector kernels: one gate, many amplitude lanes.
//
// Each kernel applies a gate to lanes [0, lanes) of a BatchedStateVector,
// running the corresponding serial kernel's loop body (qbarren/exec/
// kernels.hpp) per lane: the same pair enumeration and the same complex
// arithmetic per amplitude, with the matrix entries held in locals across
// all lanes. Per-lane results are therefore bit-identical to applying the
// serial kernel to each lane in its own StateVector — batching changes
// how often the matrix is fetched and the trig is evaluated, never the
// per-amplitude expressions.
//
// The `_per_lane` variants take one Mat2 per lane (entries[b] applies to
// lane b): parameterized ops in a batched dispatch bind a different angle
// per lane, supplied via the plan's per-op angle table.
#pragma once

#include <cstdint>

#include "qbarren/qsim/batched_statevector.hpp"
#include "qbarren/qsim/gates.hpp"

namespace qbarren::exec {

/// Uniform 2x2 on `target` of every lane in [0, lanes).
void batched_apply_mat2(BatchedStateVector& batch, std::size_t lanes,
                        const gates::Mat2& u, std::size_t target);

/// Per-lane 2x2: entries[b] on lane b.
void batched_apply_mat2_per_lane(BatchedStateVector& batch, std::size_t lanes,
                                 const gates::Mat2* entries,
                                 std::size_t target);

/// Uniform rotation with precomputed entries, through the serial kernel's
/// axis body per lane.
void batched_apply_rotation_mat2(BatchedStateVector& batch, std::size_t lanes,
                                 gates::Axis axis, const gates::Mat2& u,
                                 std::size_t target);

/// Per-lane rotation entries (batched bindings differ per lane), through
/// the axis body per lane.
void batched_apply_rotation_per_lane(BatchedStateVector& batch,
                                     std::size_t lanes, gates::Axis axis,
                                     const gates::Mat2* entries,
                                     std::size_t target);

/// Rotation u_first then rotation u_second on `target` of every lane in
/// one pass, keeping each amplitude pair in registers between the gates —
/// identical to two batched_apply_rotation_mat2 calls, exactly as the
/// serial apply_rotation_pair.
void batched_apply_rotation_pair(BatchedStateVector& batch, std::size_t lanes,
                                 gates::Axis axis_first,
                                 const gates::Mat2& u_first,
                                 gates::Axis axis_second,
                                 const gates::Mat2& u_second,
                                 std::size_t target);

/// Fused constant run (kFusedSingle): pool[indices[...]] applied in order
/// (reversed when `reverse`) in one pass per lane, as apply_mat2_run.
void batched_apply_mat2_run(BatchedStateVector& batch, std::size_t lanes,
                            const gates::Mat2* pool,
                            const std::uint32_t* indices, std::size_t count,
                            bool reverse, std::size_t target);

/// Uniform controlled 2x2, as apply_controlled_mat2 per lane.
void batched_apply_controlled_mat2(BatchedStateVector& batch,
                                   std::size_t lanes, const gates::Mat2& u,
                                   std::size_t control, std::size_t target);

/// Per-lane controlled entries (controlled rotations with batched angles).
void batched_apply_controlled_per_lane(BatchedStateVector& batch,
                                       std::size_t lanes,
                                       const gates::Mat2* entries,
                                       std::size_t control,
                                       std::size_t target);

/// CZ on (a, b) of every lane, as the serial apply_cz fast path.
void batched_apply_cz(BatchedStateVector& batch, std::size_t lanes,
                      std::size_t qubit_a, std::size_t qubit_b);

/// Generic 4x4 on (q_low, q_high) of every lane, mirroring
/// StateVector::apply_two_qubit (matrix copied into locals once, same
/// 4-group enumeration and row-accumulation order).
void batched_apply_mat4(BatchedStateVector& batch, std::size_t lanes,
                        const ComplexMatrix& u, std::size_t q_low,
                        std::size_t q_high);

}  // namespace qbarren::exec
