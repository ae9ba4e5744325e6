// Cell plan: the one enumeration of a run's cells and of the RNG streams
// they draw.
//
// The paper (§IV-C, Fig 5a) compares its initializers over the same
// sampled circuit structures per qubit count, so which (qubit count,
// initializer) cells exist and which stream each draws is the experiment's
// design. It is written down here and nowhere else: the runners execute
// the plan (run_cell_plan), the determinism auditor
// (analysis/stream_graph.hpp) builds its graphs from it, serve dispatches
// its cells to workers, and `qbarren fsck --kind` checks stores against it.
//
// Keys: "q=<q>/init=<name>" (variance), "init=<name>" (training) and
// "rep=<r>/init=<name>" (sweep). Streams are child-index paths from a
// root seed, Rng(root).child(path[0]).child(path[1])...:
//   structure of circuit i at qubit index qi    {qi, 2i, 0}
//   its parameters under initializer t          {qi, 2i, 1 + t}
//   training parameters under initializer t     {t}
// Sweep repetition r runs under root seed splitmix64(seed ^ (r + 1)).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/run.hpp"

namespace qbarren {

class Initializer;
struct VarianceExperimentOptions;
struct TrainingExperimentOptions;
struct TrainingSweepOptions;

/// One cell of a run.
struct PlanCell {
  std::string key;  ///< checkpoint and cache key
  std::size_t qubit_index = 0;  ///< into qubit_counts (variance only)
  std::size_t initializer_index = 0;
  std::uint64_t seed = 0;  ///< root seed of the cell's streams
  std::size_t repetition = 0;  ///< sweep only
};

/// A run's cells in the runner's order. The cells of one qubit count (or
/// one sweep repetition) are contiguous; repeated qubit counts are
/// enumerated faithfully, duplicate keys included.
using CellPlan = std::vector<PlanCell>;

/// Qubit-count-major, initializer-minor; seed = options.seed.
[[nodiscard]] CellPlan variance_cell_plan(
    const VarianceExperimentOptions& options,
    const std::vector<std::string>& initializers);
/// One cell per initializer; seed = options.seed.
[[nodiscard]] CellPlan training_cell_plan(
    const TrainingExperimentOptions& options,
    const std::vector<std::string>& initializers);
/// Repetition-major; repetition r's cells carry its root seed.
[[nodiscard]] CellPlan sweep_cell_plan(
    const TrainingSweepOptions& options,
    const std::vector<std::string>& initializers);

/// "q=<qubits>/init=<initializer>"; initializer "*" labels the structure
/// streams a qubit count's cells share.
[[nodiscard]] std::string variance_key(std::size_t qubits,
                                       const std::string& initializer);
/// "rep=<repetition>", the namespace of a sweep repetition's cells.
[[nodiscard]] std::string repetition_label(std::size_t repetition);

/// The names of `initializers`, in order.
[[nodiscard]] std::vector<std::string> names_of(
    const std::vector<const Initializer*>& initializers);

/// Longest child-index path any runner derives.
inline constexpr std::size_t kMaxStreamDepth = 3;

/// A child-index path from a run's root seed.
struct StreamPath {
  std::array<std::uint64_t, kMaxStreamDepth> index{};
  std::size_t depth = 0;

  /// The seed of Rng(root).child(index[0])...child(index[depth - 1]).
  [[nodiscard]] std::uint64_t seed_from(std::uint64_t root) const noexcept;
};

[[nodiscard]] StreamPath structure_stream_path(std::size_t qubit_index,
                                               std::size_t circuit);
[[nodiscard]] StreamPath parameter_stream_path(std::size_t qubit_index,
                                               std::size_t circuit,
                                               std::size_t initializer_index);
[[nodiscard]] StreamPath training_stream_path(std::size_t initializer_index);

/// What a runner does per cell of its plan.
struct CellWork {
  /// The options fingerprint a checkpoint must carry to be restored from.
  std::string fingerprint;
  /// Computes a cell's payload, on an executor worker.
  std::function<CheckpointCell(const PlanCell&, CellContext&)> compute;
  /// Files a payload, restored from the checkpoint or just computed, into
  /// the result. Computed payloads are deposited under one lock.
  std::function<void(const PlanCell&, const CheckpointCell&)> deposit;
  /// Optional; called at enumeration, before any compute, for each cell
  /// that will be computed.
  std::function<void(const PlanCell&)> schedule;
};

/// Runs `plan` under `control`: a cell the checkpoint holds is restored, a
/// cell a restore-only run lacks is recorded as a kCancelled failure, and
/// the rest are computed on the executor, then checkpointed and deposited.
/// Progress is reported per cell. Returns the failures sorted by key.
/// Throws CheckpointError, before any cell, when the checkpoint's
/// fingerprint is not `work.fingerprint`, and InvalidArgument when a
/// restore-only run has no checkpoint.
[[nodiscard]] std::vector<CellFailure> run_cell_plan(const CellPlan& plan,
                                                     const RunControl& control,
                                                     const CellWork& work);

}  // namespace qbarren
