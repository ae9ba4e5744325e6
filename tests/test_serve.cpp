// Serve-layer tests: wire protocol round-trips, the in-process worker
// loop, and end-to-end service runs against real forked worker processes
// (crash recovery, hard-kill watchdog, cache dedupe, budgets), including
// the PR's acceptance criterion — a worker SIGKILLed mid-cell must not
// change a single byte of the final result relative to a serial
// in-process run.
//
// Process-spawning tests need the qbarren_cli binary (workers are
// `qbarren_cli worker`); they skip when the build does not provide
// QBARREN_CLI_BIN (examples disabled).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "qbarren/analysis/admission.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/exit_codes.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/serve/protocol.hpp"
#include "qbarren/serve/server.hpp"
#include "qbarren/serve/service.hpp"
#include "qbarren/serve/worker.hpp"

namespace qbarren::serve {
namespace {

RequestSpec small_variance_spec() {
  RequestSpec spec;
  spec.id = "test";
  spec.kind = SpecKind::kVariance;
  spec.variance.qubit_counts = {2, 3};
  spec.variance.circuits_per_point = 6;
  spec.variance.layers = 3;
  spec.variance.seed = 11;
  return spec;
}

RequestSpec small_training_spec() {
  RequestSpec spec;
  spec.id = "test-train";
  spec.kind = SpecKind::kTraining;
  spec.training.qubits = 3;
  spec.training.layers = 2;
  spec.training.iterations = 4;
  spec.training.seed = 7;
  return spec;
}

std::string serial_dump(const RequestSpec& spec) {
  if (spec.kind == SpecKind::kVariance) {
    return to_json(VarianceExperiment(spec.variance)
                       .run_paper_set(FanMode::kLayerTensor))
        .dump();
  }
  return to_json(TrainingExperiment(spec.training)
                     .run_paper_set(FanMode::kLayerTensor))
      .dump();
}

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, SpecKindNamesRoundTrip) {
  EXPECT_EQ(spec_kind_from_name("variance"), SpecKind::kVariance);
  EXPECT_EQ(spec_kind_from_name("training"), SpecKind::kTraining);
  EXPECT_STREQ(spec_kind_name(SpecKind::kTraining), "training");
  EXPECT_THROW((void)spec_kind_from_name("sweep"), NotFound);
}

TEST(ServeProtocol, RequestRoundTrips) {
  RequestSpec spec = small_variance_spec();
  spec.max_cell_failures = 2;
  spec.max_cell_attempts = 3;
  spec.deadline_seconds = 60.0;
  const RequestSpec parsed = request_from_json(to_json(spec));
  EXPECT_EQ(parsed.id, spec.id);
  EXPECT_EQ(parsed.kind, spec.kind);
  EXPECT_EQ(parsed.max_cell_failures, 2u);
  EXPECT_EQ(parsed.max_cell_attempts, 3u);
  EXPECT_DOUBLE_EQ(parsed.deadline_seconds, 60.0);
  EXPECT_EQ(options_fingerprint(parsed.variance),
            options_fingerprint(spec.variance));

  RequestSpec training = small_training_spec();
  const RequestSpec parsed_training = request_from_json(to_json(training));
  EXPECT_EQ(options_fingerprint(parsed_training.training),
            options_fingerprint(training.training));
}

TEST(ServeProtocol, UnknownKeysRejected) {
  JsonValue request = to_json(small_variance_spec());
  request.set("tyop", 1.0);
  EXPECT_THROW((void)request_from_json(request), InvalidArgument);

  JsonValue bad_options = JsonValue::object();
  bad_options.set("layerz", static_cast<std::int64_t>(3));
  JsonValue nested = JsonValue::object();
  nested.set("id", "x");
  nested.set("kind", "variance");
  nested.set("options", bad_options);
  EXPECT_THROW((void)request_from_json(nested), InvalidArgument);
}

TEST(ServeProtocol, RequestCellPlanMatchesRunnerKeys) {
  const RequestSpec spec = small_variance_spec();
  const CellPlan cells = request_cell_plan(spec);
  const std::vector<std::string> inits = paper_initializer_names();
  ASSERT_EQ(cells.size(), 2 * inits.size());
  EXPECT_EQ(cells.front().key, "q=2/init=" + inits.front());
  EXPECT_EQ(cells.back().key, "q=3/init=" + inits.back());
  // The runner's checkpoint keys are "q=<q>/init=<name>": restoring a
  // serve-assembled store must hit every one of them (covered end to end
  // in the e2e tests; here we pin the key format).
  const CellPlan training_cells = request_cell_plan(small_training_spec());
  ASSERT_EQ(training_cells.size(), inits.size());
  EXPECT_EQ(training_cells.front().key, "init=" + inits.front());
}

TEST(ServeProtocol, WorkerMessagesRoundTrip) {
  WorkerJob job;
  job.job_id = 42;
  job.kind = SpecKind::kVariance;
  job.options =
      options_to_json(kVarianceOptionsTable, small_variance_spec().variance);
  job.cell.key = "q=3/init=random";
  job.cell.qubit_index = 1;
  job.engine_attempt = 2;
  const WorkerJob parsed = worker_job_from_json(to_json(job));
  EXPECT_EQ(parsed.job_id, 42u);
  EXPECT_EQ(parsed.cell.key, "q=3/init=random");
  EXPECT_EQ(parsed.cell.qubit_index, 1u);
  EXPECT_EQ(parsed.engine_attempt, 2u);

  WorkerReply reply;
  reply.type = WorkerReply::Type::kFail;
  reply.job_id = 42;
  reply.cell_key = "q=3/init=random";
  reply.error = cell_error_class_name(CellErrorClass::kNonFinite);
  reply.message = "gradient is not finite";
  const WorkerReply parsed_reply = worker_reply_from_json(to_json(reply));
  EXPECT_EQ(parsed_reply.type, WorkerReply::Type::kFail);
  EXPECT_EQ(parsed_reply.error, "non-finite");
  EXPECT_EQ(parsed_reply.message, "gradient is not finite");
}

// --- in-process worker loop -------------------------------------------------

TEST(ServeWorker, ComputesCellOverPipes) {
  int job_pipe[2];
  int reply_pipe[2];
  ASSERT_EQ(::pipe(job_pipe), 0);
  ASSERT_EQ(::pipe(reply_pipe), 0);

  const RequestSpec spec = small_variance_spec();
  WorkerJob job;
  job.job_id = 7;
  job.kind = spec.kind;
  job.options = options_to_json(kVarianceOptionsTable, spec.variance);
  job.cell = request_cell_plan(spec).front();
  const std::string line = ndjson_line(to_json(job));
  ASSERT_EQ(::write(job_pipe[1], line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  ::close(job_pipe[1]);  // EOF after the one job -> worker loop exits

  std::thread worker([&] {
    EXPECT_EQ(worker_main(job_pipe[0], reply_pipe[1]), kExitOk);
  });
  std::string output;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(reply_pipe[0], buffer, sizeof(buffer));
    if (n <= 0) break;
    output.append(buffer, static_cast<std::size_t>(n));
  }
  worker.join();
  ::close(reply_pipe[0]);

  const std::size_t newline = output.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const WorkerReply start =
      worker_reply_from_json(parse_json(output.substr(0, newline)));
  EXPECT_EQ(start.type, WorkerReply::Type::kStart);
  EXPECT_EQ(start.job_id, 7u);
  const WorkerReply done = worker_reply_from_json(
      parse_json(output.substr(newline + 1)));
  ASSERT_EQ(done.type, WorkerReply::Type::kOk);

  // The payload must be the exact cell the in-process runner computes.
  const CheckpointCell cell = parse_cell_payload(done.payload);
  const auto initializers = paper_initializers(FanMode::kLayerTensor);
  const std::vector<double> expected = compute_variance_cell(
      spec.variance, 0, *initializers[0], 0, ParameterShiftEngine{});
  EXPECT_EQ(cell.vector("samples"), expected);
}

// --- end-to-end service runs ------------------------------------------------

#ifdef QBARREN_CLI_BIN

ServiceOptions cli_service_options() {
  ServiceOptions options;
  options.worker_argv = {QBARREN_CLI_BIN, "worker"};
  return options;
}

TEST(ServeService, KillMidCellIsByteIdenticalToSerialRun) {
  const RequestSpec spec = small_variance_spec();
  const std::string serial = serial_dump(spec);

  ServiceOptions options = cli_service_options();
  options.workers = 3;
  std::atomic<int> kills{0};
  options.kill_on_cell_start = [&kills](const std::string& key) {
    return key == "q=3/init=he" && kills.fetch_add(1) == 0;
  };
  ExperimentService service(std::move(options));

  std::vector<std::string> retried;
  const RequestOutcome outcome = service.run_request(
      spec, [&retried](const JsonValue& event) {
        if (event.at("event").as_string() == "cell" &&
            event.at("status").as_string() == "retry") {
          retried.push_back(event.at("cell").as_string());
        }
      });

  EXPECT_EQ(outcome.status, RequestOutcome::Status::kOk);
  EXPECT_EQ(outcome.exit_code, kExitOk);
  EXPECT_GE(outcome.worker_deaths, 1u);
  EXPECT_GE(outcome.retries, 1u);
  // The retry is visible in the streamed metadata...
  ASSERT_FALSE(retried.empty());
  EXPECT_EQ(retried.front(), "q=3/init=he");
  // ...and the result is byte-identical to the serial in-process run.
  EXPECT_EQ(outcome.result.dump(), serial);
}

TEST(ServeService, ByteIdenticalAtAnyShardCount) {
  const RequestSpec spec = small_variance_spec();
  const std::string serial = serial_dump(spec);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ServiceOptions options = cli_service_options();
    options.workers = workers;
    ExperimentService service(std::move(options));
    const RequestOutcome outcome = service.run_request(spec);
    EXPECT_EQ(outcome.status, RequestOutcome::Status::kOk);
    EXPECT_EQ(outcome.result.dump(), serial)
        << "diverged at " << workers << " workers";
  }
}

TEST(ServeService, TrainingRequestMatchesSerialRun) {
  const RequestSpec spec = small_training_spec();
  ExperimentService service(cli_service_options());
  const RequestOutcome outcome = service.run_request(spec);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kOk);
  EXPECT_EQ(outcome.result.dump(), serial_dump(spec));
}

TEST(ServeService, IdenticalCellsDedupeThroughCache) {
  const RequestSpec spec = small_variance_spec();
  ExperimentService service(cli_service_options());
  const RequestOutcome first = service.run_request(spec);
  ASSERT_EQ(first.status, RequestOutcome::Status::kOk);
  EXPECT_EQ(first.cached, 0u);
  EXPECT_EQ(first.computed, first.cells);

  RequestSpec again = spec;
  again.id = "test-2";  // id and control do not affect the cache key
  again.max_cell_failures = 5;
  const RequestOutcome second = service.run_request(again);
  EXPECT_EQ(second.status, RequestOutcome::Status::kOk);
  EXPECT_EQ(second.cached, second.cells);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.result.dump(), first.result.dump());
}

TEST(ServeService, AdmissionRejectsBrokenSpecWithDiagnostics) {
  RequestSpec spec = small_variance_spec();
  // QB001 (error): with no entanglers the <Z0 Z1> observable's backward
  // light cone covers only q[0..1], so the sampled last parameter (a
  // rotation on the top qubit) is structurally dead — every gradient
  // sample would be exactly zero.
  spec.variance.entangle = false;
  spec.variance.cost = CostKind::kPauliZZ;
  ExperimentService service(cli_service_options());
  JsonValue rejection;
  const RequestOutcome outcome = service.run_request(
      spec, [&rejection](const JsonValue& event) {
        if (event.at("event").as_string() == "rejected") rejection = event;
      });
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kRejected);
  EXPECT_EQ(outcome.exit_code, kExitAdmissionRejected);
  ASSERT_TRUE(rejection.is_object());
  EXPECT_TRUE(rejection.at("findings").contains("diagnostics"));
  // Nothing was dispatched: the pool never started.
  EXPECT_TRUE(service.worker_pids().empty());
}

TEST(ServeService, AdmissionFindingsAreFeasibilityThenTheRequestAudit) {
  // QD103 (error): qubit_counts {2, 2} gives two cells one checkpoint key.
  // The rejection carries admission_check's findings followed by exactly
  // what audit_request reports, options-table findings included.
  RequestSpec spec = small_variance_spec();
  spec.variance.qubit_counts = {2, 2};
  Diagnostics expected = admission_check(spec.variance).findings;
  const Diagnostics audit = audit_request(spec);
  expected.insert(expected.end(), audit.begin(), audit.end());
  ExperimentService service(cli_service_options());
  JsonValue rejection;
  const RequestOutcome outcome = service.run_request(
      spec, [&rejection](const JsonValue& event) {
        if (event.at("event").as_string() == "rejected") rejection = event;
      });
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kRejected);
  ASSERT_TRUE(rejection.is_object());
  EXPECT_EQ(rejection.at("findings").dump(), to_json(expected).dump());
  bool saw_qd103 = false;
  for (const Diagnostic& finding : audit) {
    saw_qd103 = saw_qd103 || finding.code == "QD103";
  }
  EXPECT_TRUE(saw_qd103);
  EXPECT_TRUE(service.worker_pids().empty());
}

TEST(ServeService, AdmissionRejectsProvablyBarrenSpecBeforeAnyFork) {
  // QB011 (error): the closed-form variance model predicts ~2.9e-7 for
  // the q = 10 global-cost grid point — below bp_variance_floor, so the
  // run is provably barren and is refused statically, before any worker
  // process exists.
  RequestSpec spec = small_variance_spec();
  spec.variance.qubit_counts = {10};
  spec.variance.layers = 50;
  spec.variance.cost = CostKind::kGlobalZero;
  ExperimentService service(cli_service_options());
  JsonValue rejection;
  const RequestOutcome outcome = service.run_request(
      spec, [&rejection](const JsonValue& event) {
        if (event.at("event").as_string() == "rejected") rejection = event;
      });
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kRejected);
  EXPECT_EQ(outcome.exit_code, kExitAdmissionRejected);
  ASSERT_TRUE(rejection.is_object());
  bool saw_qb011_error = false;
  const JsonValue& diags = rejection.at("findings").at("diagnostics");
  for (std::size_t i = 0; i < diags.size(); ++i) {
    saw_qb011_error = saw_qb011_error ||
                      (diags.at(i).at("code").as_string() == "QB011" &&
                       diags.at(i).at("severity").as_string() == "error");
  }
  EXPECT_TRUE(saw_qb011_error);
  EXPECT_TRUE(service.worker_pids().empty());
}

TEST(ServeService, NonFiniteRetryUsesFallbackEngine) {
  RequestSpec spec = small_variance_spec();
  spec.variance.gradient_engine = "nan-at:0:parameter-shift";
  spec.max_cell_attempts = 2;
  ServiceOptions options = cli_service_options();
  options.workers = 1;
  ExperimentService service(std::move(options));
  const RequestOutcome outcome = service.run_request(spec);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kOk);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_TRUE(outcome.failures.empty());

  // The retried cell fell back to the clean parameter-shift engine, so
  // the series match an undecorated serial run exactly.
  RequestSpec clean = small_variance_spec();
  const JsonValue serial = to_json(
      VarianceExperiment(clean.variance).run_paper_set(FanMode::kLayerTensor));
  EXPECT_EQ(outcome.result.at("series").dump(),
            serial.at("series").dump());
}

TEST(ServeService, CellFailureBudgetAbortsRequest) {
  RequestSpec spec = small_variance_spec();
  spec.variance.gradient_engine = "nan-at:0:parameter-shift";
  spec.max_cell_attempts = 1;   // no non-finite retry
  spec.max_cell_failures = 0;   // fail fast
  ServiceOptions options = cli_service_options();
  options.workers = 1;
  ExperimentService service(std::move(options));
  const RequestOutcome outcome = service.run_request(spec);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kFailed);
  EXPECT_EQ(outcome.exit_code, kExitFailure);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].error, CellErrorClass::kNonFinite);
  EXPECT_TRUE(outcome.result.is_null());
}

TEST(ServeService, CrashBudgetTripsThenServiceStillServes) {
  RequestSpec spec = small_variance_spec();
  spec.variance.gradient_engine = "crash-at:0:parameter-shift";
  ServiceOptions options = cli_service_options();
  options.workers = 1;
  options.max_crash_attempts = 5;   // cells keep retrying...
  options.max_worker_crashes = 2;   // ...but the request-wide budget trips
  options.backoff_initial_seconds = 0.001;
  options.backoff_max_seconds = 0.002;
  ExperimentService service(std::move(options));

  const RequestOutcome crashed = service.run_request(spec);
  EXPECT_EQ(crashed.status, RequestOutcome::Status::kCrashBudget);
  EXPECT_EQ(crashed.exit_code, kExitWorkerCrashBudget);
  EXPECT_GT(crashed.worker_deaths, 2u);

  // The service survives its own crash budget: a clean request on the
  // same instance completes normally.
  const RequestOutcome clean = service.run_request(small_variance_spec());
  EXPECT_EQ(clean.status, RequestOutcome::Status::kOk);
  EXPECT_EQ(clean.result.dump(), serial_dump(small_variance_spec()));
}

TEST(ServeService, WatchdogKillsHungWorker) {
  RequestSpec spec = small_variance_spec();
  spec.variance.qubit_counts = {2};  // 6 cells: keep the hang count low
  spec.variance.gradient_engine = "hang-at:0:parameter-shift";
  spec.max_cell_failures = 6;  // tolerate every killed cell
  ServiceOptions options = cli_service_options();
  options.workers = 1;
  options.worker_kill_seconds = 0.25;
  options.max_crash_attempts = 0;    // a killed cell fails terminally
  options.max_worker_crashes = 20;
  ExperimentService service(std::move(options));

  const RequestOutcome outcome = service.run_request(spec);
  // Every worker hangs on its first cell (the cached fault engine fires
  // once per process), the watchdog SIGKILLs it, and the cell is recorded
  // with the `killed` taxonomy kind.
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kOk);
  ASSERT_FALSE(outcome.failures.empty());
  for (const CellFailure& failure : outcome.failures) {
    EXPECT_EQ(failure.error, CellErrorClass::kKilled);
  }
  EXPECT_GE(outcome.worker_deaths, outcome.failures.size());
}

// --- socket server ----------------------------------------------------------

TEST(ServeServer, BackpressureRejectsAndDrainReturnsInterrupted) {
  const std::string socket_path =
      testing::TempDir() + "qbarren-serve-test.sock";
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.max_pending = 0;  // only the active request is admitted
  SocketServer server(cli_service_options(), std::move(server_options));
  int server_exit = -1;
  std::thread server_thread([&] { server_exit = server.run(); });

  const auto connect_client = [&socket_path]() {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    for (int tries = 0; tries < 100; ++tries) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                               sizeof(address)) == 0) {
        return fd;
      }
      if (fd >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  };

  // Client A occupies the service (it never sends its request line).
  const int blocker = connect_client();
  ASSERT_GE(blocker, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Client B must be rejected with a backpressure event, immediately.
  const int rejected = connect_client();
  ASSERT_GE(rejected, 0);
  std::string response;
  char ch = 0;
  while (::read(rejected, &ch, 1) == 1 && ch != '\n') response.push_back(ch);
  ::close(rejected);
  const JsonValue event = parse_json(response);
  EXPECT_EQ(event.at("event").as_string(), "rejected");
  EXPECT_EQ(event.at("reason").as_string(), "backpressure");
  EXPECT_EQ(event.at("exit_code").as_integer(), kExitAdmissionRejected);

  ::close(blocker);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(::getpid(), SIGTERM);  // graceful drain
  server_thread.join();
  EXPECT_EQ(server_exit, kExitInterrupted);
}

#endif  // QBARREN_CLI_BIN

}  // namespace
}  // namespace qbarren::serve
