#include "qbarren/serve/service.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "qbarren/analysis/admission.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/exit_codes.hpp"

namespace qbarren::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::string cache_key(const std::string& fingerprint, const std::string& key) {
  return fingerprint + "|" + key;
}

/// A cell awaiting dispatch (or redispatch after a retryable failure).
struct PendingCell {
  PlanCell cell;
  std::size_t engine_attempt = 0;  // non-finite retries advance this
  std::size_t crash_attempts = 0;  // worker deaths while holding this cell
  Clock::time_point not_before{};  // crash-retry backoff gate
};

struct Event {
  enum class Kind { kReply, kDeath };
  Kind kind = Kind::kReply;
  std::size_t slot = 0;
  WorkerReply reply;    // kReply
  int wait_status = 0;  // kDeath: waitpid status
};

}  // namespace

const char* request_status_name(RequestOutcome::Status status) noexcept {
  switch (status) {
    case RequestOutcome::Status::kOk: return "ok";
    case RequestOutcome::Status::kRejected: return "rejected";
    case RequestOutcome::Status::kFailed: return "failed";
    case RequestOutcome::Status::kCrashBudget: return "crash-budget";
    case RequestOutcome::Status::kDrained: return "drained";
  }
  return "ok";
}

struct ExperimentService::Impl {
  /// One worker-pool seat. `defunct` marks a worker that has been (or is
  /// being) killed whose death event has not been consumed yet — the seat
  /// is not dispatchable until the death is processed and it respawns.
  struct Slot {
    pid_t pid = -1;
    int job_fd = -1;
    std::thread reader;
    bool live = false;
    bool busy = false;
    bool defunct = false;
    std::uint64_t job_id = 0;
    bool started = false;  // kStart seen for the in-flight job
    Clock::time_point start_time{};
  };

  ServiceOptions options;
  CheckpointSalvage salvage;  // must precede `cache`: open_cache fills it
  Checkpoint cache;
  std::vector<std::string> worker_argv;  // resolved at pool start
  std::vector<Slot> slots;
  bool pool_started = false;
  bool shut_down = false;
  std::uint64_t next_job_id = 1;

  std::mutex event_mu;
  std::condition_variable event_cv;
  std::deque<Event> events;

  static Checkpoint open_cache(const ServiceOptions& options,
                               CheckpointSalvage* salvage) {
    if (options.cache_path.empty()) {
      return Checkpoint(std::string(), kCacheFingerprint);
    }
    return Checkpoint::open_salvaging(options.cache_path, kCacheFingerprint,
                                      salvage);
  }

  explicit Impl(ServiceOptions opts)
      : options(std::move(opts)), cache(open_cache(options, &salvage)) {}

  void push_event(Event event) {
    {
      const std::lock_guard<std::mutex> lock(event_mu);
      events.push_back(std::move(event));
    }
    event_cv.notify_all();
  }

  /// Reads WorkerReply lines from a worker's stdout until EOF, then reaps
  /// the process and reports its death. Runs on a per-slot thread.
  void reader_loop(std::size_t slot_index, int reply_fd, pid_t pid) {
    std::FILE* stream = fdopen(reply_fd, "r");
    if (stream != nullptr) {
      char* line = nullptr;
      std::size_t capacity = 0;
      while (true) {
        const ssize_t length = getline(&line, &capacity, stream);
        if (length < 0) break;
        Event event;
        event.kind = Event::Kind::kReply;
        event.slot = slot_index;
        try {
          event.reply = worker_reply_from_json(
              parse_json(std::string(line, static_cast<std::size_t>(length))));
        } catch (const std::exception&) {
          continue;  // garbage line; the worker's death will surface it
        }
        push_event(std::move(event));
      }
      std::free(line);  // NOLINT(cppcoreguidelines-no-malloc)
      std::fclose(stream);
    } else {
      ::close(reply_fd);
    }
    int status = 0;
    (void)::waitpid(pid, &status, 0);
    Event death;
    death.kind = Event::Kind::kDeath;
    death.slot = slot_index;
    death.wait_status = status;
    push_event(std::move(death));
  }

  void resolve_worker_argv() {
    if (!worker_argv.empty()) return;
    if (!options.worker_argv.empty()) {
      worker_argv = options.worker_argv;
      return;
    }
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n <= 0) {
      throw Error("serve: cannot resolve /proc/self/exe to spawn workers; "
                  "set ServiceOptions::worker_argv explicitly");
    }
    buffer[n] = '\0';
    worker_argv = {std::string(buffer), "worker"};
  }

  void spawn(std::size_t slot_index) {
    Slot& slot = slots[slot_index];
    int job_pipe[2];
    int reply_pipe[2];
    if (::pipe(job_pipe) != 0) {
      throw Error("serve: pipe failed spawning a worker");
    }
    if (::pipe(reply_pipe) != 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      throw Error("serve: pipe failed spawning a worker");
    }
    // Parent-side ends must not leak into later children past exec.
    (void)::fcntl(job_pipe[1], F_SETFD, FD_CLOEXEC);
    (void)::fcntl(reply_pipe[0], F_SETFD, FD_CLOEXEC);
    std::vector<char*> argv;
    argv.reserve(worker_argv.size() + 1);
    for (std::string& arg : worker_argv) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      ::close(reply_pipe[0]);
      ::close(reply_pipe[1]);
      throw Error("serve: fork failed spawning a worker");
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      (void)::dup2(job_pipe[0], STDIN_FILENO);
      (void)::dup2(reply_pipe[1], STDOUT_FILENO);
      ::close(job_pipe[0]);
      ::close(reply_pipe[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(job_pipe[0]);
    ::close(reply_pipe[1]);
    slot.pid = pid;
    slot.job_fd = job_pipe[1];
    slot.live = true;
    slot.busy = false;
    slot.defunct = false;
    slot.started = false;
    slot.job_id = 0;
    slot.reader = std::thread([this, slot_index, fd = reply_pipe[0], pid] {
      reader_loop(slot_index, fd, pid);
    });
  }

  void start_pool() {
    if (pool_started) return;
    // Workers write reply lines to a pipe the service may have closed
    // (shutdown races); die-on-SIGPIPE would take the whole service down.
    // sigaction, not signal(): the pool runs multithreaded and signal()'s
    // semantics are not thread-safe everywhere (concurrency-mt-unsafe).
    struct sigaction ignore_pipe {};
    ignore_pipe.sa_handler = SIG_IGN;
    (void)::sigaction(SIGPIPE, &ignore_pipe, nullptr);
    resolve_worker_argv();
    slots.resize(std::max<std::size_t>(options.workers, 1));
    for (std::size_t i = 0; i < slots.size(); ++i) spawn(i);
    pool_started = true;
  }

  /// Consumes a death event for `slot`: joins the reader, closes the job
  /// pipe, and leaves the seat ready for respawn.
  void retire(std::size_t slot_index) {
    Slot& slot = slots[slot_index];
    if (slot.reader.joinable()) slot.reader.join();
    if (slot.job_fd >= 0) {
      ::close(slot.job_fd);
      slot.job_fd = -1;
    }
    slot.live = false;
    slot.busy = false;
    slot.defunct = false;
    slot.started = false;
    slot.pid = -1;
  }

  /// Kills every worker holding an in-flight job and rebuilds those
  /// seats, consuming their death (and any straggler reply) events so
  /// they cannot leak into the next request's budget accounting.
  void quiesce() {
    std::size_t outstanding = 0;
    for (Slot& slot : slots) {
      if (slot.live && (slot.busy || slot.defunct)) {
        (void)::kill(slot.pid, SIGKILL);
        slot.defunct = true;
        ++outstanding;
      }
    }
    while (outstanding > 0) {
      Event event;
      {
        std::unique_lock<std::mutex> lock(event_mu);
        event_cv.wait(lock, [this] { return !events.empty(); });
        event = std::move(events.front());
        events.pop_front();
      }
      if (event.kind == Event::Kind::kDeath) {
        retire(event.slot);
        spawn(event.slot);
        --outstanding;
      }
      // Straggler replies from killed workers are dropped on the floor.
    }
  }

  void stop() {
    if (shut_down) return;
    shut_down = true;
    if (!pool_started) return;
    for (Slot& slot : slots) {
      if (slot.job_fd >= 0) {
        ::close(slot.job_fd);  // EOF: workers exit their job loop
        slot.job_fd = -1;
      }
    }
    for (Slot& slot : slots) {
      if (slot.reader.joinable()) slot.reader.join();
      slot.live = false;
    }
    pool_started = false;
  }
};

ExperimentService::ExperimentService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  // The options tables' QD102/QD103 verdicts hold for every request, so
  // they are computed once per process, here rather than on the first
  // request.
  (void)options_table_findings(SpecKind::kVariance);
}

ExperimentService::~ExperimentService() { shutdown(); }

Checkpoint& ExperimentService::cache() noexcept { return impl_->cache; }

const CheckpointSalvage& ExperimentService::cache_salvage() const noexcept {
  return impl_->salvage;
}

std::vector<long> ExperimentService::worker_pids() const {
  std::vector<long> pids;
  for (const Impl::Slot& slot : impl_->slots) {
    if (slot.live) pids.push_back(static_cast<long>(slot.pid));
  }
  return pids;
}

void ExperimentService::shutdown() { impl_->stop(); }

namespace {

JsonValue cell_event(const std::string& request_id, const std::string& key,
                     const char* status) {
  JsonValue event = JsonValue::object();
  event.set("event", "cell");
  event.set("id", request_id);
  event.set("cell", key);
  event.set("status", status);
  return event;
}

void sink_emit(const ExperimentService::EventSink& sink,
               const JsonValue& event) {
  if (sink) sink(event);
}

}  // namespace

RequestOutcome ExperimentService::run_request(const RequestSpec& spec,
                                              const EventSink& sink,
                                              const CancellationToken* drain) {
  Impl& impl = *impl_;
  RequestOutcome outcome;

  // --- 1. admission -------------------------------------------------------
  AdmissionDecision admission =
      spec.kind == SpecKind::kVariance ? admission_check(spec.variance)
                                       : admission_check(spec.training);
  {
    // Physical feasibility (QB/QP, above) and static determinism (QD) gate
    // together: a request whose stream graph collides or whose options
    // table drops a fingerprinted field would poison the shared result
    // cache, which is strictly worse than wasting one worker pool.
    Diagnostics determinism = audit_request(spec);
    if (has_errors(determinism)) admission.admitted = false;
    admission.findings.insert(admission.findings.end(),
                              std::make_move_iterator(determinism.begin()),
                              std::make_move_iterator(determinism.end()));
  }
  if (!admission.admitted) {
    outcome.status = RequestOutcome::Status::kRejected;
    outcome.exit_code = kExitAdmissionRejected;
    JsonValue event = JsonValue::object();
    event.set("event", "rejected");
    event.set("id", spec.id);
    event.set("exit_code", static_cast<std::int64_t>(outcome.exit_code));
    event.set("findings", admission.findings_json());
    sink_emit(sink, event);
    return outcome;
  }

  const std::string fingerprint = spec_fingerprint(spec);
  const CellPlan cells = request_cell_plan(spec);
  outcome.cells = cells.size();

  {
    JsonValue event = JsonValue::object();
    event.set("event", "admitted");
    event.set("id", spec.id);
    event.set("kind", spec_kind_name(spec.kind));
    event.set("cells", cells.size());
    event.set("fingerprint", fingerprint);
    if (!admission.findings.empty()) {
      event.set("findings", admission.findings_json());
    }
    sink_emit(sink, event);
  }

  // --- 2. cache restore ---------------------------------------------------
  std::deque<PendingCell> pending;
  for (const PlanCell& cell : cells) {
    if (impl.cache.has_cell(cache_key(fingerprint, cell.key))) {
      ++outcome.cached;
      sink_emit(sink, cell_event(spec.id, cell.key, "cached"));
    } else {
      pending.push_back(PendingCell{cell, 0, 0, Clock::time_point{}});
    }
  }

  // --- 3/4. dispatch with recovery ---------------------------------------
  const Clock::time_point request_start = Clock::now();
  const bool has_deadline = std::isfinite(spec.deadline_seconds);
  const Clock::time_point request_deadline =
      has_deadline ? request_start + seconds_duration(spec.deadline_seconds)
                   : Clock::time_point::max();
  const bool has_watchdog = std::isfinite(impl.options.worker_kill_seconds);

  const JsonValue options_json =
      spec.kind == SpecKind::kVariance
          ? options_to_json(kVarianceOptionsTable, spec.variance)
          : options_to_json(kTrainingOptionsTable, spec.training);

  std::map<std::uint64_t, PendingCell> inflight;
  // Jobs whose worker was deliberately SIGKILLed by the kill_on_cell_start
  // test hook. A fast worker may have written its kOk reply before the
  // signal landed; dropping such replies makes the hook equivalent to a
  // kill that arrived mid-computation, so recovery is exercised
  // deterministically regardless of cell speed.
  std::set<std::uint64_t> doomed;
  bool aborted = false;

  if (!pending.empty()) impl.start_pool();

  const auto terminal_failure = [&](const PendingCell& cell,
                                    CellErrorClass error,
                                    const std::string& message,
                                    std::size_t attempts) {
    outcome.failures.push_back(
        CellFailure{cell.cell.key, error, message, attempts});
    JsonValue event = cell_event(spec.id, cell.cell.key, "failed");
    event.set("error", cell_error_class_name(error));
    event.set("message", message);
    event.set("attempts", attempts);
    sink_emit(sink, event);
    if (outcome.failures.size() > spec.max_cell_failures) {
      outcome.status = RequestOutcome::Status::kFailed;
      outcome.exit_code = kExitFailure;
      aborted = true;
    }
  };

  const auto retry_cell = [&](PendingCell cell, const char* reason,
                              bool backoff) {
    ++outcome.retries;
    JsonValue event = cell_event(spec.id, cell.cell.key, "retry");
    event.set("reason", reason);
    event.set("engine_attempt", cell.engine_attempt);
    event.set("crash_attempts", cell.crash_attempts);
    sink_emit(sink, event);
    if (backoff) {
      const double exponent =
          cell.crash_attempts > 0
              ? static_cast<double>(cell.crash_attempts - 1)
              : 0.0;
      const double delay =
          std::min(impl.options.backoff_initial_seconds *
                       std::pow(2.0, exponent),
                   impl.options.backoff_max_seconds);
      cell.not_before = Clock::now() + seconds_duration(delay);
    }
    pending.push_back(std::move(cell));
  };

  while (!aborted && (!pending.empty() || !inflight.empty())) {
    const bool draining = drain != nullptr && drain->cancelled();
    const Clock::time_point now = Clock::now();

    if (has_deadline && now >= request_deadline) {
      outcome.status = RequestOutcome::Status::kFailed;
      outcome.exit_code = kExitFailure;
      aborted = true;
      break;
    }
    if (draining && inflight.empty()) {
      outcome.status = RequestOutcome::Status::kDrained;
      outcome.exit_code = kExitInterrupted;
      aborted = true;
      break;
    }

    // Dispatch ready cells onto free seats (skip backoff-gated ones).
    if (!draining) {
      for (std::size_t s = 0; s < impl.slots.size() && !pending.empty();
           ++s) {
        Impl::Slot& slot = impl.slots[s];
        if (!slot.live || slot.busy || slot.defunct) continue;
        auto ready = std::find_if(
            pending.begin(), pending.end(),
            [&now](const PendingCell& c) { return c.not_before <= now; });
        if (ready == pending.end()) break;
        PendingCell cell = std::move(*ready);
        pending.erase(ready);

        WorkerJob job;
        job.job_id = impl.next_job_id++;
        job.kind = spec.kind;
        job.options = options_json;
        job.cell = cell.cell;
        job.engine_attempt = cell.engine_attempt;
        const std::string line = ndjson_line(to_json(job));

        slot.busy = true;
        slot.started = false;
        slot.job_id = job.job_id;
        inflight.emplace(job.job_id, std::move(cell));
        if (::write(slot.job_fd, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size())) {
          // The worker is dead or dying; its death event will requeue
          // the cell through the normal crash path.
          slot.defunct = true;
        }
      }
    }

    // Pick the earliest deadline worth waking for.
    Clock::time_point wake = request_deadline;
    if (has_watchdog) {
      for (const Impl::Slot& slot : impl.slots) {
        if (slot.busy && slot.started && !slot.defunct) {
          wake = std::min(
              wake, slot.start_time +
                        seconds_duration(impl.options.worker_kill_seconds));
        }
      }
    }
    for (const PendingCell& cell : pending) {
      if (cell.not_before > now) wake = std::min(wake, cell.not_before);
    }
    if (draining) {
      // Nothing scheduled ahead; wake on events only (with a coarse
      // heartbeat so a lost wakeup cannot wedge the drain).
      wake = std::min(wake, now + seconds_duration(0.25));
    }

    Event event;
    {
      std::unique_lock<std::mutex> lock(impl.event_mu);
      if (impl.events.empty()) {
        if (wake == Clock::time_point::max()) {
          impl.event_cv.wait_for(lock, seconds_duration(0.25));
        } else {
          impl.event_cv.wait_until(lock, wake);
        }
      }
      if (impl.events.empty()) {
        lock.unlock();
        // Timed out: fire the hard watchdog on overdue workers.
        if (has_watchdog) {
          const Clock::time_point check = Clock::now();
          for (Impl::Slot& slot : impl.slots) {
            if (slot.busy && slot.started && !slot.defunct &&
                check - slot.start_time >=
                    seconds_duration(impl.options.worker_kill_seconds)) {
              (void)::kill(slot.pid, SIGKILL);
              slot.defunct = true;
            }
          }
        }
        continue;
      }
      event = std::move(impl.events.front());
      impl.events.pop_front();
    }

    Impl::Slot& slot = impl.slots[event.slot];
    switch (event.kind) {
      case Event::Kind::kReply: {
        if (!slot.busy || event.reply.job_id != slot.job_id) break;  // stale
        if (event.reply.type != WorkerReply::Type::kStart &&
            doomed.count(event.reply.job_id) != 0) {
          break;  // outcome discarded; the SIGKILL death requeues the cell
        }
        const auto it = inflight.find(event.reply.job_id);
        if (it == inflight.end()) break;
        switch (event.reply.type) {
          case WorkerReply::Type::kStart: {
            slot.started = true;
            slot.start_time = Clock::now();
            if (impl.options.kill_on_cell_start &&
                impl.options.kill_on_cell_start(event.reply.cell_key)) {
              (void)::kill(slot.pid, SIGKILL);
              slot.defunct = true;
              doomed.insert(event.reply.job_id);
            }
            break;
          }
          case WorkerReply::Type::kOk: {
            PendingCell cell = std::move(it->second);
            inflight.erase(it);
            slot.busy = false;
            slot.started = false;
            try {
              impl.cache.record_cell(
                  cache_key(fingerprint, cell.cell.key),
                  parse_cell_payload(event.reply.payload));
              ++outcome.computed;
              JsonValue done = cell_event(spec.id, cell.cell.key, "ok");
              if (cell.engine_attempt > 0 || cell.crash_attempts > 0) {
                done.set("engine_attempt", cell.engine_attempt);
                done.set("crash_attempts", cell.crash_attempts);
              }
              sink_emit(sink, done);
            } catch (const std::exception& e) {
              terminal_failure(cell, CellErrorClass::kException,
                               std::string("worker payload rejected: ") +
                                   e.what(),
                               cell.engine_attempt + 1);
            }
            break;
          }
          case WorkerReply::Type::kFail: {
            PendingCell cell = std::move(it->second);
            inflight.erase(it);
            slot.busy = false;
            slot.started = false;
            const CellErrorClass error =
                cell_error_class_from_name(event.reply.error);
            if (error == CellErrorClass::kNonFinite &&
                cell.engine_attempt + 1 < spec.max_cell_attempts) {
              ++cell.engine_attempt;
              retry_cell(std::move(cell), "non-finite", false);
            } else {
              terminal_failure(cell, error, event.reply.message,
                               cell.engine_attempt + 1);
            }
            break;
          }
        }
        break;
      }
      case Event::Kind::kDeath: {
        const bool killed = WIFSIGNALED(event.wait_status) &&
                            WTERMSIG(event.wait_status) == SIGKILL;
        const CellErrorClass error =
            killed ? CellErrorClass::kKilled : CellErrorClass::kCrashed;
        ++outcome.worker_deaths;

        doomed.erase(slot.job_id);
        const auto it = inflight.find(slot.job_id);
        const bool had_job = slot.busy && it != inflight.end();
        PendingCell cell;
        if (had_job) {
          cell = std::move(it->second);
          inflight.erase(it);
        }
        impl.retire(event.slot);
        if (!impl.shut_down) impl.spawn(event.slot);

        if (had_job) {
          ++cell.crash_attempts;
          if (cell.crash_attempts <= impl.options.max_crash_attempts) {
            retry_cell(std::move(cell),
                       killed ? "worker killed" : "worker crashed", true);
          } else {
            terminal_failure(cell, error,
                             killed ? "worker SIGKILLed (watchdog or "
                                      "external) while computing this cell"
                                    : "worker process died while computing "
                                      "this cell",
                             cell.crash_attempts);
          }
        }
        if (outcome.worker_deaths > impl.options.max_worker_crashes) {
          outcome.status = RequestOutcome::Status::kCrashBudget;
          outcome.exit_code = kExitWorkerCrashBudget;
          aborted = true;
        }
        break;
      }
    }
  }

  if (aborted) {
    impl.quiesce();
  }

  // --- 5. assembly --------------------------------------------------------
  const bool complete =
      !aborted && outcome.failures.size() <= spec.max_cell_failures;
  if (complete) {
    outcome.status = RequestOutcome::Status::kOk;
    outcome.exit_code = kExitOk;

    Checkpoint assembly{std::string(), fingerprint};
    for (const PlanCell& cell : cells) {
      if (const CheckpointCell* stored =
              impl.cache.find_cell(cache_key(fingerprint, cell.key))) {
        assembly.put_cell(cell.key, *stored);
      }
    }
    RunControl control;
    control.checkpoint = &assembly;
    control.restore_only = true;
    // The assembly pass restores every present cell; the serve loop's own
    // failure records (crashed/killed taxonomy) replace the restore-only
    // placeholders for absent ones.
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const CellFailure& a, const CellFailure& b) {
                return a.cell < b.cell;
              });
    switch (spec.kind) {
      case SpecKind::kVariance: {
        VarianceResult result = VarianceExperiment(spec.variance)
                                    .run_paper_set(FanMode::kLayerTensor,
                                                   control);
        result.failures = outcome.failures;
        outcome.result = to_json(result);
        break;
      }
      case SpecKind::kTraining: {
        TrainingResult result = TrainingExperiment(spec.training)
                                    .run_paper_set(FanMode::kLayerTensor,
                                                   control);
        result.failures = outcome.failures;
        outcome.result = to_json(result);
        break;
      }
    }
  }

  JsonValue done = JsonValue::object();
  done.set("event", "done");
  done.set("id", spec.id);
  done.set("status", request_status_name(outcome.status));
  done.set("exit_code", static_cast<std::int64_t>(outcome.exit_code));
  done.set("cells", outcome.cells);
  done.set("cached", outcome.cached);
  done.set("computed", outcome.computed);
  done.set("retries", outcome.retries);
  done.set("worker_deaths", outcome.worker_deaths);
  if (!outcome.failures.empty()) {
    done.set("failures", failures_to_json(outcome.failures));
  }
  if (!outcome.result.is_null()) {
    done.set("result", outcome.result);
  }
  sink_emit(sink, done);
  return outcome;
}

}  // namespace qbarren::serve
