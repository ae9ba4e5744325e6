#include "qbarren/serve/worker.hpp"

#include <sys/types.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qbarren/bp/options_table.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/protocol.hpp"

namespace qbarren::serve {

namespace {

/// Per-process worker state: engines are cached by name so stateful
/// decorators (the fault injectors' call counters) span jobs, exactly as
/// they do inside one in-process run — a crash-at:<k> engine crashes this
/// worker once per process lifetime, and the retried cell completes on a
/// fresh worker whose counter restarts.
struct WorkerState {
  std::vector<std::unique_ptr<Initializer>> initializers =
      paper_initializers(FanMode::kLayerTensor);
  std::map<std::string, std::unique_ptr<GradientEngine>> engines;

  GradientEngine& engine_for(const std::string& name) {
    auto it = engines.find(name);
    if (it == engines.end()) {
      it = engines.emplace(name, make_gradient_engine(name)).first;
    }
    return *it->second;
  }

  /// Computes one cell exactly as the in-process runner would: same
  /// initializer set, same engine-selection-by-attempt rule, same RNG
  /// child streams (the indices ride in the job). The returned cell is
  /// what the runner would have deposited into its checkpoint.
  CheckpointCell compute_cell(const WorkerJob& job) {
    if (job.cell.initializer_index >= initializers.size()) {
      throw InvalidArgument("worker: initializer_index out of range");
    }
    const Initializer& initializer = *initializers[job.cell.initializer_index];
    CheckpointCell cell;
    switch (job.kind) {
      case SpecKind::kVariance: {
        const VarianceExperimentOptions options =
            options_from_json(kVarianceOptionsTable, job.options);
        // Attempt > 0 retries with the parameter-shift reference engine —
        // the same fallback the in-process executor path uses.
        GradientEngine& engine =
            engine_for(job.engine_attempt == 0 ? options.gradient_engine
                                               : "parameter-shift");
        cell.vectors["samples"] = compute_variance_cell(
            options, job.cell.qubit_index, initializer,
            job.cell.initializer_index, engine);
        break;
      }
      case SpecKind::kTraining: {
        const TrainingExperimentOptions options =
            options_from_json(kTrainingOptionsTable, job.options);
        const CostFunction cost = make_training_cost(options);
        CellContext ctx;
        ctx.attempt = job.engine_attempt;
        cell = checkpoint_cell_from_train_result(run_training_cell(
            options, cost, initializer, job.cell.initializer_index, ctx));
        break;
      }
    }
    return cell;
  }
};

/// Writes one reply line and flushes — the service reads line-at-a-time
/// and must see kStart before the cell computation begins.
void emit(std::FILE* out, const WorkerReply& reply) {
  const std::string line = ndjson_line(to_json(reply));
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
}

}  // namespace

int worker_main(int in_fd, int out_fd) {
  std::FILE* in = fdopen(in_fd, "r");
  std::FILE* out = fdopen(out_fd, "w");
  if (in == nullptr || out == nullptr) return 1;

  WorkerState state;
  char* line = nullptr;
  std::size_t capacity = 0;
  int exit_code = 0;
  while (true) {
    const ssize_t length = getline(&line, &capacity, in);
    if (length < 0) break;  // EOF: service closed our pipe — clean exit
    const std::string text(line, static_cast<std::size_t>(length));
    if (text.find_first_not_of(" \t\r\n") == std::string::npos) continue;

    WorkerJob job;
    try {
      job = worker_job_from_json(parse_json(text));
    } catch (const std::exception&) {
      exit_code = 1;  // protocol breakage — the service treats our death
      break;          // as a crash and re-forks
    }

    WorkerReply start;
    start.type = WorkerReply::Type::kStart;
    start.job_id = job.job_id;
    start.cell_key = job.cell.key;
    emit(out, start);

    WorkerReply done;
    done.job_id = job.job_id;
    done.cell_key = job.cell.key;
    try {
      done.type = WorkerReply::Type::kOk;
      done.payload = serialize_cell_payload(state.compute_cell(job));
    } catch (const NumericalError& e) {
      done.type = WorkerReply::Type::kFail;
      done.error = cell_error_class_name(CellErrorClass::kNonFinite);
      done.message = e.what();
    } catch (const std::exception& e) {
      done.type = WorkerReply::Type::kFail;
      done.error = cell_error_class_name(CellErrorClass::kException);
      done.message = e.what();
    }
    emit(out, done);
  }
  std::free(line);  // NOLINT(cppcoreguidelines-no-malloc) getline allocates
  std::fclose(in);
  std::fclose(out);
  return exit_code;
}

}  // namespace qbarren::serve
