#include "qbarren/bp/cell_plan.hpp"

#include <algorithm>
#include <mutex>

#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/rng.hpp"

namespace qbarren {

namespace {

std::string training_key(const std::string& initializer) {
  return "init=" + initializer;
}

/// The root seed of sweep repetition `repetition`.
std::uint64_t repetition_seed(std::uint64_t seed, std::size_t repetition) {
  return splitmix64(seed ^ (repetition + 1));
}

}  // namespace

std::string variance_key(std::size_t qubits, const std::string& initializer) {
  return "q=" + std::to_string(qubits) + "/" + training_key(initializer);
}

std::string repetition_label(std::size_t repetition) {
  return "rep=" + std::to_string(repetition);
}

CellPlan variance_cell_plan(const VarianceExperimentOptions& options,
                            const std::vector<std::string>& initializers) {
  CellPlan plan;
  plan.reserve(options.qubit_counts.size() * initializers.size());
  for (std::size_t qi = 0; qi < options.qubit_counts.size(); ++qi) {
    for (std::size_t t = 0; t < initializers.size(); ++t) {
      plan.push_back({variance_key(options.qubit_counts[qi], initializers[t]),
                      qi, t, options.seed, 0});
    }
  }
  return plan;
}

CellPlan training_cell_plan(const TrainingExperimentOptions& options,
                            const std::vector<std::string>& initializers) {
  CellPlan plan;
  plan.reserve(initializers.size());
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    plan.push_back({training_key(initializers[t]), 0, t, options.seed, 0});
  }
  return plan;
}

CellPlan sweep_cell_plan(const TrainingSweepOptions& options,
                         const std::vector<std::string>& initializers) {
  CellPlan plan;
  plan.reserve(options.repetitions * initializers.size());
  for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
    const std::uint64_t seed = repetition_seed(options.base.seed, rep);
    for (std::size_t t = 0; t < initializers.size(); ++t) {
      plan.push_back({repetition_label(rep) + "/" +
                          training_key(initializers[t]),
                      0, t, seed, rep});
    }
  }
  return plan;
}

std::vector<std::string> names_of(
    const std::vector<const Initializer*>& initializers) {
  std::vector<std::string> names;
  names.reserve(initializers.size());
  for (const Initializer* init : initializers) names.push_back(init->name());
  return names;
}

std::uint64_t StreamPath::seed_from(std::uint64_t root) const noexcept {
  for (std::size_t d = 0; d < depth; ++d) {
    root = derive_child_seed(root, index[d]);
  }
  return root;
}

StreamPath structure_stream_path(std::size_t qubit_index,
                                 std::size_t circuit) {
  return {{qubit_index, 2 * circuit, 0}, 3};
}

StreamPath parameter_stream_path(std::size_t qubit_index, std::size_t circuit,
                                 std::size_t initializer_index) {
  return {{qubit_index, 2 * circuit, 1 + initializer_index}, 3};
}

StreamPath training_stream_path(std::size_t initializer_index) {
  return {{initializer_index}, 1};
}

std::vector<CellFailure> run_cell_plan(const CellPlan& plan,
                                       const RunControl& control,
                                       const CellWork& work) {
  Checkpoint* checkpoint = control.checkpoint;
  if (checkpoint != nullptr && checkpoint->fingerprint() != work.fingerprint) {
    throw CheckpointError(
        "run_cell_plan: checkpoint fingerprint does not match this run's "
        "options");
  }
  QBARREN_REQUIRE(!control.restore_only || checkpoint != nullptr,
                  "run_cell_plan: restore_only needs a checkpoint");
  std::size_t completed = 0;
  std::mutex deposit_mu;  // guards result/checkpoint/progress deposits
  const auto report = [&](const std::string& key, bool restored) {
    if (control.progress) {
      control.progress(RunProgress{key, ++completed, plan.size(), restored});
    }
  };

  std::vector<CellTask> tasks;
  std::vector<CellFailure> missing;  // restore-only cells not in the store
  for (const PlanCell& cell : plan) {
    if (checkpoint != nullptr) {
      if (const CheckpointCell* stored = checkpoint->find_cell(cell.key)) {
        work.deposit(cell, *stored);
        report(cell.key, true);
        continue;
      }
    }
    if (control.restore_only) {
      missing.push_back(CellFailure{cell.key, CellErrorClass::kCancelled,
                                    "cell not restored (restore-only "
                                    "assembly)",
                                    0});
      continue;
    }
    if (work.schedule) work.schedule(cell);
    tasks.push_back(CellTask{
        cell.key,
        [&work, &deposit_mu, &report, checkpoint, &cell](CellContext& ctx) {
          const CheckpointCell payload = work.compute(cell, ctx);
          std::lock_guard<std::mutex> lock(deposit_mu);
          if (checkpoint != nullptr) checkpoint->record_cell(cell.key, payload);
          work.deposit(cell, payload);
          report(cell.key, false);
        }});
  }

  ExecutorOptions options;
  options.jobs = control.jobs;
  options.cell_timeout_seconds = control.cell_timeout_seconds;
  options.max_failures = control.max_cell_failures;
  options.max_attempts = control.max_cell_attempts;
  options.cancel = control.cancel;
  std::vector<CellFailure> failures =
      Executor(options).run(std::move(tasks)).failures;
  if (!missing.empty()) {
    failures.insert(failures.end(), missing.begin(), missing.end());
    std::sort(failures.begin(), failures.end(),
              [](const CellFailure& a, const CellFailure& b) {
                return a.cell < b.cell;
              });
  }
  return failures;
}

}  // namespace qbarren
