// Unified command-line driver for every qbarren experiment.
//
// Usage:
//   qbarren_cli variance   [--qubits 2,4,6,8,10] [--circuits 200]
//                          [--layers 50] [--seed 42] [--json out.json]
//   qbarren_cli train      [--optimizer adam] [--qubits 10] [--layers 5]
//                          [--iterations 50] [--deadline-sec 3600]
//                          [--nonfinite throw|abort|fallback]
//                          [--json out.json]
//   qbarren_cli sweep      [--repetitions 5] [--optimizer adam] ...
//   qbarren_cli landscape  [--qubits 2,5,10] [--layers 100] [--grid 21]
//   qbarren_cli express    [--qubits 4] [--layers 5] [--pairs 300]
//   qbarren_cli lightcone  [--qubits 6] [--layers 10]
//   qbarren_cli serve      --socket <path> [--workers 2] [--cache <file>]
//                          [--max-pending 4] [--worker-kill-sec S]
//                          [--crash-attempts 3] [--max-worker-crashes 8]
//                          | --once <request-file|-> (no socket)
//   qbarren_cli worker     (internal: spawned by serve; NDJSON on
//                          stdin/stdout)
//   qbarren_cli submit     --socket <path> [--request <file>] (default
//                          stdin); streams the event lines and exits with
//                          the request's exit code
//   qbarren_cli predict    [--qubits 2,4,6,8,10] [--layers 50]
//                          [--cost global|local|zz] [--seed 42]
//                          [--param last|middle|first]
//                          [--init name1,name2,...] [--structures 32]
//                          [--json out.json] [--conformance
//                          [--circuits 200] [--checkpoint f [--resume]]]
//   qbarren_cli lint       --qasm <file> | --ansatz variance|training|
//                          motivational [--qubits 10] [--layers 50]
//                          [--cost global|local|zz] [--seed 42]
//                          [--param last|middle|first] [--format table|json]
//                          [--verify-plan] [--rules]
//   qbarren_cli audit      --kind variance|training|sweep [runner flags]
//                          [--rep-seeds s1,s2,...] | --request <file|->
//                          [more request files...] | --rules
//                          [--format table|json]
//   qbarren_cli fsck       <store> [--fingerprint <fp> | --request <file>
//                          [--cache] | --kind ... [runner flags]]
//                          [--format table|json]
//
// `audit` statically proves (or refutes) the determinism claims of a
// configuration before anything runs: it enumerates the exact RNG stream
// derivations the run will perform and checks rules QD100-QD103 (stream
// collisions, cross-run seed aliasing, fingerprint soundness, cache-key
// coverage). `fsck` audits a checkpoint/result-cache store at rest
// (QD110-QD115: torn records, duplicate cells, version skew, foreign
// fingerprints, orphan cells). Both exit 1 on error findings, and the
// serve layer runs the same request audit as part of admission control.
//
// `lint` statically analyzes a circuit (rules QB001-QB011 + QN120: dead
// parameters, barren-plateau risk, redundant rotations, cancelling gate
// pairs, light-cone widths, plan cost, closed-form predicted gradient
// variance, FP-noise-floor violations, ...) and exits 1 when any
// error-severity finding fires. With --verify-plan it additionally lowers
// the circuit to a compiled execution plan and statically verifies the
// lowering (PlanVerifier, codes QP100-QP108). The experiment runners
// (variance / train / sweep) run the same analysis as a preflight:
// --lint=warn (default) prints findings and launches, --lint=error
// refuses to launch on error findings, --lint=off skips the check. With
// --verify-plans the runners also verify every compiled plan on first
// attach (results are byte-identical; a failed verification aborts the
// run). `landscape` accepts --verify-plans too, covering the Fig 1
// motivational circuit's lowering.
//
// Long runs (variance / train / sweep) accept --checkpoint <file>: every
// completed cell is flushed atomically, Ctrl-C (SIGINT/SIGTERM) stops the
// run cooperatively after the cell in flight, and --resume restores the
// completed cells and finishes the rest, reproducing an uninterrupted run
// bit-for-bit. A checkpoint written under different options is rejected.
//
// The same subcommands run their cells on a fault-isolated thread pool:
//   --jobs N               worker threads (default: hardware concurrency;
//                          results are byte-identical at any N)
//   --cell-timeout-sec S   soft per-cell deadline; an overrunning cell is
//                          cancelled and reported as a timeout failure
//   --max-cell-failures K  tolerate up to K failed cells (default 0 =
//                          fail fast on the first); failed cells are
//                          listed on stderr and in the result JSON
//   --cell-retries R       extra attempts for non-finite cells, retried
//                          with the parameter-shift fallback engine
//   --engine NAME          gradient engine for variance/train/sweep
//                          (adjoint, parameter-shift, finite-diff, spsa;
//                          decorators like nan-at:<k>:<engine> inject
//                          faults for testing the failure paths)
// Each subcommand accepts only the options it reads (allowed_options);
// any other exits 1 with an error naming the option. Run with no
// arguments, or any subcommand with --help, for this help text.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/analysis/predict.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/analysis/store_audit.hpp"
#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/bp/cell_plan.hpp"
#include "qbarren/bp/expressibility.hpp"
#include "qbarren/bp/landscape.hpp"
#include "qbarren/bp/lightcone.hpp"
#include "qbarren/bp/options_table.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/cli.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/exit_codes.hpp"
#include "qbarren/common/run.hpp"
#include "qbarren/circuit/qasm_parser.hpp"
#include "qbarren/common/version.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/serve/server.hpp"
#include "qbarren/serve/worker.hpp"

namespace {

using namespace qbarren;

std::vector<const Initializer*> borrow(
    const std::vector<std::unique_ptr<Initializer>>& owned) {
  std::vector<const Initializer*> ptrs;
  for (const auto& init : owned) {
    ptrs.push_back(init.get());
  }
  return ptrs;
}

/// Resilient-run plumbing shared by the long-running subcommands:
/// Ctrl-C cancellation, optional --checkpoint/--resume store, progress
/// lines on stderr.
struct ResilientRun {
  CancellationToken token;
  std::optional<Checkpoint> checkpoint;
  std::optional<ScopedSignalCancellation> signal_guard;
  RunControl control;

  ResilientRun(const CliArgs& args, const std::string& fingerprint) {
    if (args.has("checkpoint")) {
      const std::string path = args.get_string("checkpoint", "");
      QBARREN_REQUIRE(!path.empty(), "--checkpoint needs a file path");
      const bool resume = args.get_bool("resume", false);
      checkpoint.emplace(Checkpoint::open(path, fingerprint, resume));
      if (resume && checkpoint->cell_count() > 0) {
        std::fprintf(stderr, "resuming from %s (%zu completed cells)\n",
                     path.c_str(), checkpoint->cell_count());
      }
      control.checkpoint = &*checkpoint;
    } else {
      QBARREN_REQUIRE(!args.has("resume"),
                      "--resume requires --checkpoint <file>");
    }
    control.cancel = &token;
    signal_guard.emplace(token);
    control.progress = [](const RunProgress& p) {
      std::fprintf(stderr, "[%zu/%zu] %s%s\n", p.completed, p.total,
                   p.cell.c_str(),
                   p.from_checkpoint ? " (from checkpoint)" : "");
    };

    // Parallel execution: 0 jobs = hardware concurrency. The job count
    // never changes results, only wall-clock time.
    control.jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
    control.cell_timeout_seconds = args.get_double(
        "cell-timeout-sec", std::numeric_limits<double>::infinity());
    control.max_cell_failures =
        static_cast<std::size_t>(args.get_int("max-cell-failures", 0));
    control.max_cell_attempts =
        1 + static_cast<std::size_t>(args.get_int("cell-retries", 0));
  }
};

/// Per-run failure summary on stderr (failed cell keys + error class);
/// empty when every cell succeeded. The same records land in the result
/// JSON's "failures" array.
void report_failures(const std::vector<CellFailure>& failures) {
  if (failures.empty()) return;
  std::fprintf(stderr, "%zu cell(s) failed within the failure budget:\n%s",
               failures.size(), failure_summary(failures).c_str());
}

/// Runs an experiment's preflight lint under the subcommand's --lint mode
/// (default warn). LintError propagates to main's handler -> exit 1, so
/// --lint=error refuses the launch before any cell executes.
void preflight(const CliArgs& args, const Diagnostics& diagnostics,
               const char* what) {
  const LintMode mode =
      lint_mode_from_name(args.get_string("lint", "warn"));
  enforce_preflight(diagnostics, mode, what);
}

/// Opt-in --verify-plans: while the guard is alive, every compiled plan is
/// statically verified on first attach (PlanVerifier, QP1xx codes); a
/// failing plan throws PlanVerificationError out of the run. Verification
/// reads the plan without touching execution, so results are byte-identical
/// to an unverified run.
std::unique_ptr<ScopedPlanVerification> plan_verification(const CliArgs& args) {
  if (!args.get_bool("verify-plans", false)) return nullptr;
  return std::make_unique<ScopedPlanVerification>();
}

void report_plan_verification(
    const std::unique_ptr<ScopedPlanVerification>& guard) {
  if (guard == nullptr) return;
  std::fprintf(stderr,
               "plan verification: %zu plan(s) statically verified, "
               "%zu warning(s)\n",
               guard->plans_verified(), guard->warnings());
}

/// --param: which parameter's derivative a variance run samples.
GradientParameter param_flag(const CliArgs& args) {
  const std::optional<GradientParameter> which =
      kGradientParameterNames.find(args.get_string("param", "last"));
  if (!which) throw InvalidArgument("--param must be last, middle, or first");
  return *which;
}

VarianceExperimentOptions variance_options_from(const CliArgs& args) {
  VarianceExperimentOptions options;
  options.qubit_counts.clear();
  for (int q : args.get_int_list("qubits", {2, 4, 6, 8, 10})) {
    options.qubit_counts.push_back(static_cast<std::size_t>(q));
  }
  options.circuits_per_point =
      static_cast<std::size_t>(args.get_int("circuits", 200));
  options.layers = static_cast<std::size_t>(args.get_int("layers", 50));
  options.seed = args.get_uint("seed", 42);
  options.cost = cost_kind_from_name(args.get_string("cost", "global"));
  options.gradient_engine =
      args.get_string("engine", options.gradient_engine);
  options.which_parameter = param_flag(args);
  return options;
}

int cmd_variance(const CliArgs& args) {
  const VarianceExperimentOptions options = variance_options_from(args);
  // Validates the options before the preflight or a checkpoint is opened.
  const VarianceExperiment experiment(options);
  preflight(args, lint_variance_options(options), "variance preflight");
  ResilientRun resilient(args, options_fingerprint(options));
  const auto verification = plan_verification(args);
  const VarianceResult result =
      experiment.run_paper_set(FanMode::kLayerTensor, resilient.control);
  report_plan_verification(verification);
  report_failures(result.failures);
  std::printf("%s\n%s", result.variance_table().to_ascii().c_str(),
              result.decay_table().to_ascii().c_str());
  if (args.has("json")) {
    const std::string path = args.get_string("json", "variance.json");
    write_json_file(to_json(result), path);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

TrainingExperimentOptions training_options_from(const CliArgs& args) {
  TrainingExperimentOptions options;
  options.optimizer = args.get_string("optimizer", "gradient-descent");
  options.qubits = static_cast<std::size_t>(args.get_int("qubits", 10));
  options.layers = static_cast<std::size_t>(args.get_int("layers", 5));
  options.iterations =
      static_cast<std::size_t>(args.get_int("iterations", 50));
  options.learning_rate = args.get_double("lr", 0.1);
  options.seed = args.get_uint("seed", 7);
  options.gradient_engine =
      args.get_string("engine", options.gradient_engine);
  options.deadline_seconds = args.get_double(
      "deadline-sec", std::numeric_limits<double>::infinity());
  const std::optional<NonFinitePolicy> policy =
      kNonFinitePolicyNames.find(args.get_string("nonfinite", "throw"));
  if (!policy) {
    throw InvalidArgument("--nonfinite must be throw, abort, or fallback");
  }
  options.non_finite_policy = *policy;
  return options;
}

int cmd_train(const CliArgs& args) {
  const TrainingExperimentOptions options = training_options_from(args);
  preflight(args, lint_training_options(options), "train preflight");
  ResilientRun resilient(args, options_fingerprint(options));
  const auto verification = plan_verification(args);
  const TrainingResult result =
      TrainingExperiment(options).run_paper_set(FanMode::kLayerTensor,
                                                resilient.control);
  report_plan_verification(verification);
  report_failures(result.failures);
  std::printf("%s\n%s", result.loss_table(5).to_ascii().c_str(),
              result.summary_table().to_ascii().c_str());
  if (args.has("json")) {
    const std::string path = args.get_string("json", "training.json");
    write_json_file(to_json(result), path);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  TrainingSweepOptions options;
  options.base = training_options_from(args);
  options.repetitions =
      static_cast<std::size_t>(args.get_int("repetitions", 5));
  preflight(args, lint_sweep_options(options), "sweep preflight");
  ResilientRun resilient(args, options_fingerprint(options));
  const auto verification = plan_verification(args);
  const auto owned = paper_initializers();
  const TrainingSweepResult result =
      run_training_sweep(borrow(owned), options, resilient.control);
  report_plan_verification(verification);
  report_failures(result.failures);
  std::printf("%s", result.summary_table().to_ascii().c_str());
  return 0;
}

int cmd_landscape(const CliArgs& args) {
  LandscapeOptions base;
  base.layers = static_cast<std::size_t>(args.get_int("layers", 100));
  base.grid_points = static_cast<std::size_t>(args.get_int("grid", 21));
  base.seed = args.get_uint("seed", 1);
  std::vector<std::size_t> widths;
  for (int q : args.get_int_list("qubits", {2, 5, 10})) {
    widths.push_back(static_cast<std::size_t>(q));
  }
  const auto verification = plan_verification(args);
  std::printf("%s", landscape_flatness_table(widths, base).to_ascii().c_str());
  report_plan_verification(verification);
  if (args.has("json")) {
    LandscapeOptions single = base;
    single.qubits = widths.front();
    const std::string path = args.get_string("json", "landscape.json");
    write_json_file(to_json(scan_landscape(single)), path);
    std::printf("wrote %s (first width only)\n", path.c_str());
  }
  return 0;
}

int cmd_express(const CliArgs& args) {
  ExpressibilityOptions options;
  options.qubits = static_cast<std::size_t>(args.get_int("qubits", 4));
  options.layers = static_cast<std::size_t>(args.get_int("layers", 5));
  options.pairs = static_cast<std::size_t>(args.get_int("pairs", 300));
  options.seed = args.get_uint("seed", 17);
  const auto owned = paper_initializers();
  const auto results = analyze_expressibility(borrow(owned), options);
  std::printf("%s", expressibility_table(results).to_ascii().c_str());
  return 0;
}

int cmd_lightcone(const CliArgs& args) {
  const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 6));
  const auto layers = static_cast<std::size_t>(args.get_int("layers", 10));
  Rng rng(args.get_uint("seed", 1));
  VarianceAnsatzOptions options;
  options.layers = layers;
  const Circuit c = variance_ansatz(qubits, rng, options);

  std::vector<std::pair<std::string, LightConeReport>> reports;
  std::vector<std::size_t> all;
  for (std::size_t q = 0; q < qubits; ++q) {
    all.push_back(q);
  }
  reports.emplace_back("global cost (all qubits)",
                       analyze_light_cone(c, all));
  reports.emplace_back("Z0 Z1 observable", analyze_light_cone(c, {0, 1}));
  reports.emplace_back("Z0 observable", analyze_light_cone(c, {0}));
  std::printf("%s", light_cone_table(reports).to_ascii().c_str());
  return 0;
}

/// Reads a whole stream (request text for serve --once / submit).
std::string read_stream(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

serve::ServiceOptions service_options_from(const CliArgs& args) {
  serve::ServiceOptions options;
  options.workers = static_cast<std::size_t>(args.get_int("workers", 2));
  options.cache_path = args.get_string("cache", "");
  options.worker_kill_seconds = args.get_double(
      "worker-kill-sec", std::numeric_limits<double>::infinity());
  options.max_crash_attempts =
      static_cast<std::size_t>(args.get_int("crash-attempts", 3));
  options.max_worker_crashes =
      static_cast<std::size_t>(args.get_int("max-worker-crashes", 8));
  return options;
}

int cmd_serve(const CliArgs& args) {
  if (args.has("once")) {
    // One request from a file (or stdin with "-"), no socket: the full
    // admission/dispatch/recovery pipeline with the event stream on
    // stdout. Used by tests and for ad-hoc runs.
    const std::string path = args.get_string("once", "-");
    std::string text;
    if (path == "-") {
      text = read_stream(std::cin);
    } else {
      std::ifstream in(path, std::ios::binary);
      QBARREN_REQUIRE(in.good(), "serve: cannot open request file '" +
                                     path + "'");
      text = read_stream(in);
    }
    const serve::RequestSpec spec =
        serve::request_from_json(parse_json(text));
    serve::ExperimentService service(service_options_from(args));
    const serve::RequestOutcome outcome =
        service.run_request(spec, [](const JsonValue& event) {
          std::fputs(serve::ndjson_line(event).c_str(), stdout);
          std::fflush(stdout);
        });
    return outcome.exit_code;
  }

  serve::ServerOptions server;
  server.socket_path = args.get_string("socket", "");
  QBARREN_REQUIRE(!server.socket_path.empty(),
                  "serve needs --socket <path> (or --once <request-file>)");
  server.max_pending =
      static_cast<std::size_t>(args.get_int("max-pending", 4));
  serve::SocketServer socket_server(service_options_from(args), server);
  std::fprintf(stderr, "qbarren serve: listening on %s\n",
               server.socket_path.c_str());
  return socket_server.run();
}

int cmd_submit(const CliArgs& args) {
  const std::string socket_path = args.get_string("socket", "");
  QBARREN_REQUIRE(!socket_path.empty(), "submit needs --socket <path>");
  std::string text;
  if (args.has("request")) {
    const std::string path = args.get_string("request", "");
    std::ifstream in(path, std::ios::binary);
    QBARREN_REQUIRE(in.good(),
                    "submit: cannot open request file '" + path + "'");
    text = read_stream(in);
  } else {
    text = read_stream(std::cin);
  }
  // Re-serialize so multi-line request files become one protocol line.
  const std::string line = serve::ndjson_line(parse_json(text));

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  QBARREN_REQUIRE(socket_path.size() < sizeof(address.sun_path),
                  "submit: socket path too long: " + socket_path);
  std::memcpy(address.sun_path, socket_path.c_str(),
              socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  QBARREN_REQUIRE(fd >= 0, "submit: socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    throw Error("submit: cannot connect to " + socket_path);
  }
  std::size_t offset = 0;
  while (offset < line.size()) {
    const ssize_t n =
        ::write(fd, line.data() + offset, line.size() - offset);
    QBARREN_REQUIRE(n > 0, "submit: write to service failed");
    offset += static_cast<std::size_t>(n);
  }

  // Stream event lines through to stdout; the terminal event carries the
  // request's exit code.
  int exit_code = kExitFailure;  // stream ended without a terminal event
  std::string event_line;
  char ch = 0;
  while (true) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n <= 0) break;
    if (ch != '\n') {
      event_line.push_back(ch);
      continue;
    }
    std::printf("%s\n", event_line.c_str());
    std::fflush(stdout);
    try {
      const JsonValue event = parse_json(event_line);
      const std::string kind = event.at("event").as_string();
      if (kind == "done" || kind == "rejected") {
        exit_code = static_cast<int>(event.at("exit_code").as_integer());
      }
    } catch (const std::exception&) {
      // Non-JSON noise on the stream: pass through, keep reading.
    }
    event_line.clear();
  }
  ::close(fd);
  return exit_code;
}

/// `qbarren predict`: the static Fig 5a — the closed-form variance model
/// evaluated over the same (qubits x initializer) grid the Monte-Carlo
/// `variance` subcommand simulates, in milliseconds and with zero
/// simulation. --conformance additionally runs the Monte-Carlo half and
/// checks every cell against the committed tolerance bands (exit 1 when
/// the model drifts out of band or the Fig 5a ordering breaks).
int cmd_predict(const CliArgs& args) {
  const VarianceExperimentOptions options = variance_options_from(args);
  std::vector<std::string> initializers;
  if (args.has("init")) {
    std::stringstream stream(args.get_string("init", ""));
    std::string name;
    while (std::getline(stream, name, ',')) {
      QBARREN_REQUIRE(!name.empty(), "--init: empty list entry");
      if (!angle_model_supported(name)) {
        throw InvalidArgument(
            "predict: initializer '" + name +
            "' has no closed-form angle model (beta's non-zero-mean law "
            "breaks the near-identity expansion); drop it or use the "
            "Monte-Carlo `variance` subcommand");
      }
      initializers.push_back(name);
    }
    QBARREN_REQUIRE(!initializers.empty(),
                    "--init needs at least one initializer name");
  } else {
    initializers = {"random", "xavier-normal", "xavier-uniform",
                    "he",     "lecun",         "orthogonal"};
  }
  // Ensemble cap: the prediction averages over the same circuit
  // structures the Monte-Carlo cell would sample; 32 is converged (the
  // spread across structures is small next to the decade-scale bands).
  const auto structures =
      static_cast<std::size_t>(args.get_int("structures", 32));

  if (args.get_bool("conformance", false)) {
    ResilientRun resilient(args, options_fingerprint(options));
    const ConformanceReport report =
        predict_conformance(options, initializers, default_conformance_bands(),
                            {}, resilient.control);
    std::printf("%s\n%s", report.table().to_ascii().c_str(),
                report.slope_table().to_ascii().c_str());
    std::printf("ordering %s, tolerance bands %s\n",
                report.ordering_ok ? "ok" : "BROKEN",
                report.all_within ? "ok" : "EXCEEDED");
    if (args.has("json")) {
      const std::string path = args.get_string("json", "conformance.json");
      write_json_file(report.to_json(), path);
      std::printf("wrote %s\n", path.c_str());
    }
    return report.ok() ? kExitOk : kExitFailure;
  }

  const PredictionGrid grid =
      predict_variance_grid(options, initializers, {}, structures);
  std::printf("%s\n%s", grid.variance_table().to_ascii().c_str(),
              grid.decay_table().to_ascii().c_str());
  if (args.has("json")) {
    const std::string path = args.get_string("json", "predict.json");
    write_json_file(to_json(grid), path);
    std::printf("wrote %s\n", path.c_str());
  }
  return kExitOk;
}

int cmd_lint(const CliArgs& args) {
  if (args.has("rules")) {
    std::printf("%s", lint_rule_table().to_ascii().c_str());
    return 0;
  }

  Circuit circuit(1);
  CircuitLintContext context;
  if (args.has("qasm")) {
    const std::string path = args.get_string("qasm", "");
    std::ifstream in(path, std::ios::binary);
    QBARREN_REQUIRE(in.good(), "lint: cannot open QASM file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    circuit = parse_qasm(text.str()).circuit;
  } else {
    const std::string ansatz = args.get_string("ansatz", "");
    QBARREN_REQUIRE(!ansatz.empty(),
                    "lint needs --qasm <file> or --ansatz "
                    "variance|training|motivational (or --rules)");
    const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 10));
    if (ansatz == "variance") {
      const auto layers =
          static_cast<std::size_t>(args.get_int("layers", 100));
      Rng rng(args.get_uint("seed", 42));
      VarianceAnsatzOptions options;
      options.layers = layers;
      circuit = variance_ansatz(qubits, rng, options);
    } else if (ansatz == "training") {
      TrainingAnsatzOptions options;
      options.layers = static_cast<std::size_t>(args.get_int("layers", 5));
      circuit = training_ansatz(qubits, options);
    } else if (ansatz == "motivational") {
      circuit = motivational_ansatz(
          qubits, static_cast<std::size_t>(args.get_int("layers", 100)));
    } else {
      throw InvalidArgument(
          "--ansatz must be variance, training, or motivational");
    }
  }

  // Usage context: what the circuit would be measured with (and, for the
  // variance protocol, which parameter it differentiates).
  if (args.has("cost")) {
    const CostKind cost = cost_kind_from_name(args.get_string("cost", ""));
    context.observable_qubits =
        cost_observable_qubits(cost, circuit.num_qubits());
    context.global_cost = is_global_cost(cost);
    if (args.has("param") && circuit.num_parameters() > 0) {
      context.differentiated_parameter =
          sampled_parameter(circuit, param_flag(args));
    }
  }

  Diagnostics diagnostics = lint_circuit(circuit, context);
  if (args.get_bool("verify-plan", false)) {
    // verify-plan mode: lower the circuit and statically verify the
    // compiled plan against it (QP1xx findings join the QB report).
    Diagnostics plan_findings = verify_circuit_lowering(circuit);
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(plan_findings.begin()),
                       std::make_move_iterator(plan_findings.end()));
  }
  const std::string format = args.get_string("format", "table");
  if (format == "json") {
    std::printf("%s\n", to_json(diagnostics).dump(2).c_str());
  } else if (format == "table") {
    if (diagnostics.empty()) {
      std::printf("no findings\n");
    } else {
      std::printf("%s", diagnostics_table(diagnostics).to_ascii().c_str());
    }
  } else {
    throw InvalidArgument("--format must be table or json");
  }
  return has_errors(diagnostics) ? kExitFailure : kExitOk;
}

/// Renders a diagnostics report (table or round-trippable JSON) and maps
/// it to the process exit code — shared by `audit` and `fsck`.
int report_diagnostics(const CliArgs& args, const Diagnostics& diagnostics) {
  const std::string format = args.get_string("format", "table");
  if (format == "json") {
    std::printf("%s\n", to_json(diagnostics).dump(2).c_str());
  } else if (format == "table") {
    if (diagnostics.empty()) {
      std::printf("no findings\n");
    } else {
      std::printf("%s", diagnostics_table(diagnostics).to_ascii().c_str());
    }
  } else {
    throw InvalidArgument("--format must be table or json");
  }
  return has_errors(diagnostics) ? kExitFailure : kExitOk;
}

/// Comma-separated uint64 list ("--rep-seeds 7,7,9"); seeds exceed int
/// range, so get_int_list is not usable here.
std::vector<std::uint64_t> parse_seed_list(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    QBARREN_REQUIRE(!item.empty(), "--rep-seeds: empty list entry");
    seeds.push_back(std::stoull(item));
  }
  QBARREN_REQUIRE(!seeds.empty(), "--rep-seeds needs at least one seed");
  return seeds;
}

serve::RequestSpec request_spec_from_file(const std::string& path) {
  std::string text;
  if (path == "-") {
    text = read_stream(std::cin);
  } else {
    std::ifstream in(path, std::ios::binary);
    QBARREN_REQUIRE(in.good(), "cannot open request file '" + path + "'");
    text = read_stream(in);
  }
  return serve::request_from_json(parse_json(text));
}

/// Per-repetition training graphs for an explicit root-seed list — models
/// a hand-rolled sweep (scripted seeds instead of the derived ladder) so
/// `audit` can prove or refute its independence claim.
std::vector<StreamGraph> hand_rolled_sweep_graphs(
    const TrainingExperimentOptions& base,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<StreamGraph> graphs;
  for (std::size_t rep = 0; rep < seeds.size(); ++rep) {
    TrainingExperimentOptions rep_options = base;
    rep_options.seed = seeds[rep];
    graphs.push_back(training_stream_graph(rep_options, repetition_label(rep)));
  }
  return graphs;
}

int cmd_audit(const CliArgs& args) {
  if (args.has("rules")) {
    std::printf("%s", determinism_rule_table().to_ascii().c_str());
    return 0;
  }

  // Serve request mode: one file audits that request (stream graph +
  // fingerprint/wire probes); several files additionally check QD101
  // across them — requests submitted as independent must not share roots.
  if (args.has("request") || !args.positional().empty()) {
    std::vector<serve::RequestSpec> specs;
    if (args.has("request")) {
      specs.push_back(request_spec_from_file(args.get_string("request", "")));
    }
    for (const std::string& path : args.positional()) {
      specs.push_back(request_spec_from_file(path));
    }
    return report_diagnostics(args, specs.size() == 1
                                        ? serve::audit_request(specs.front())
                                        : serve::audit_requests(specs));
  }

  const std::string kind = args.get_string("kind", "variance");
  if (kind == "variance") {
    return report_diagnostics(args,
                              audit_variance_options(variance_options_from(args)));
  }
  if (kind == "training") {
    return report_diagnostics(args,
                              audit_training_options(training_options_from(args)));
  }
  if (kind == "sweep") {
    const TrainingExperimentOptions base = training_options_from(args);
    if (args.has("rep-seeds")) {
      const auto seeds = parse_seed_list(args.get_string("rep-seeds", ""));
      return report_diagnostics(
          args, audit_stream_graphs(hand_rolled_sweep_graphs(base, seeds)));
    }
    TrainingSweepOptions options;
    options.base = base;
    options.repetitions =
        static_cast<std::size_t>(args.get_int("repetitions", 5));
    return report_diagnostics(args, audit_sweep_options(options));
  }
  throw InvalidArgument("--kind must be variance, training, or sweep");
}

int cmd_fsck(const CliArgs& args) {
  QBARREN_REQUIRE(!args.positional().empty(),
                  "fsck needs a store path: qbarren fsck <store> "
                  "[--fingerprint <fp> | --request <file> [--cache] | "
                  "--kind variance|training|sweep ...]");
  const std::string store = args.positional().front();

  StoreAuditOptions expectations;
  if (args.has("request")) {
    expectations = serve::store_expectations(
        request_spec_from_file(args.get_string("request", "")),
        args.get_bool("cache", false));
  } else if (args.has("fingerprint")) {
    expectations.expected_fingerprint = args.get_string("fingerprint", "");
  } else if (args.has("kind")) {
    // Expectations derived from the same experiment flags the runner
    // takes: fingerprint + the runner's cell plan, so fsck and a --resume
    // of the run agree on what the store may contain.
    const std::string kind = args.get_string("kind", "");
    const std::vector<std::string> names = paper_initializer_names();
    CellPlan plan;
    if (kind == "variance") {
      const VarianceExperimentOptions options = variance_options_from(args);
      expectations.expected_fingerprint = options_fingerprint(options);
      plan = variance_cell_plan(options, names);
    } else if (kind == "training") {
      const TrainingExperimentOptions options = training_options_from(args);
      expectations.expected_fingerprint = options_fingerprint(options);
      plan = training_cell_plan(options, names);
    } else if (kind == "sweep") {
      TrainingSweepOptions options;
      options.base = training_options_from(args);
      options.repetitions =
          static_cast<std::size_t>(args.get_int("repetitions", 5));
      expectations.expected_fingerprint = options_fingerprint(options);
      plan = sweep_cell_plan(options, names);
    } else {
      throw InvalidArgument("--kind must be variance, training, or sweep");
    }
    for (const PlanCell& cell : plan) {
      expectations.expected_cells.push_back(cell.key);
    }
  }

  const Diagnostics diagnostics = audit_store(store, expectations);
  const int code = report_diagnostics(args, diagnostics);
  if (code == kExitOk && args.get_string("format", "table") == "table") {
    std::printf("%s: clean\n", store.c_str());
  }
  return code;
}

/// The options each subcommand reads; CliArgs rejects any other, so a
/// mistyped flag exits 1 instead of silently running the default
/// configuration. Every list holds "help". An unknown subcommand gets no
/// list (anything parses) and main reports the subcommand itself.
std::vector<std::string> allowed_options(const std::string& command) {
  using List = std::vector<std::string>;
  const List variance = {"qubits", "circuits", "layers", "seed",
                         "cost",   "engine",   "param"};
  const List training = {"optimizer", "qubits", "layers",       "iterations",
                         "lr",        "seed",   "engine",       "deadline-sec",
                         "nonfinite"};
  const List resilient = {"checkpoint",        "resume",      "jobs",
                          "cell-timeout-sec", "max-cell-failures",
                          "cell-retries"};
  const List preflight = {"lint", "verify-plans"};
  const auto join = [](std::initializer_list<const List*> groups,
                       List extra) {
    extra.emplace_back("help");
    for (const List* group : groups) {
      extra.insert(extra.end(), group->begin(), group->end());
    }
    return extra;
  };
  if (command == "variance") {
    return join({&variance, &resilient, &preflight}, {"json"});
  }
  if (command == "train") {
    return join({&training, &resilient, &preflight}, {"json"});
  }
  if (command == "sweep") {
    return join({&training, &resilient, &preflight}, {"repetitions"});
  }
  if (command == "landscape") {
    return join({}, {"qubits", "layers", "grid", "seed", "verify-plans",
                     "json"});
  }
  if (command == "express") {
    return join({}, {"qubits", "layers", "pairs", "seed"});
  }
  if (command == "lightcone") return join({}, {"qubits", "layers", "seed"});
  if (command == "predict") {
    return join({&variance, &resilient},
                {"init", "structures", "conformance", "json"});
  }
  if (command == "lint") {
    return join({}, {"rules", "qasm", "ansatz", "qubits", "layers", "seed",
                     "cost", "param", "verify-plan", "format"});
  }
  if (command == "audit") {
    return join({&variance, &training},
                {"rules", "request", "kind", "rep-seeds", "repetitions",
                 "format"});
  }
  if (command == "fsck") {
    return join({&variance, &training},
                {"request", "cache", "fingerprint", "kind", "repetitions",
                 "format"});
  }
  if (command == "serve") {
    return join({}, {"once", "socket", "max-pending", "workers", "cache",
                     "worker-kill-sec", "crash-attempts",
                     "max-worker-crashes"});
  }
  if (command == "submit") return join({}, {"socket", "request"});
  if (command == "worker") return join({}, {});
  return {};
}

void print_help() {
  std::printf(
      "qbarren %s — barren-plateau experiments\n"
      "subcommands: variance | train | sweep | landscape | express | "
      "lightcone | predict | lint | audit | fsck | serve | submit\n"
      "predict evaluates the closed-form 2-design gradient-variance model\n"
      "over the Fig 5a grid with zero simulation (--init to select\n"
      "initializers; beta is refused — no closed-form law). --conformance\n"
      "also runs the Monte-Carlo pipeline and checks each cell against\n"
      "the committed decade bands, exiting 1 on drift.\n"
      "audit statically verifies RNG stream independence and fingerprint\n"
      "soundness (rules QD100-QD103): --kind variance|training|sweep with\n"
      "the runner's flags, --rep-seeds s1,s2,... to check a hand-rolled\n"
      "sweep, or serve request files (--request <file|-> / positionals;\n"
      "several files also check cross-request seed aliasing). --rules\n"
      "lists the QD family. fsck <store> audits a checkpoint/result-cache\n"
      "file at rest (QD110-QD115: torn records, duplicates, version skew,\n"
      "foreign fingerprints, orphan cells) against --fingerprint <fp>,\n"
      "--request <file> [--cache], or the same --kind flags the runner\n"
      "takes. Both accept --format table|json and exit 1 on any\n"
      "error-severity finding. serve runs the same QD audit at admission.\n"
      "serve runs the process-isolated experiment service: NDJSON\n"
      "requests over a Unix socket (--socket) or a single request with\n"
      "--once <file|->; submit sends a request and streams the events.\n"
      "exit codes: 0 ok, 1 failure, 3 admission-rejected/backpressure,\n"
      "4 worker-crash-budget, 130 interrupted.\n"
      "lint statically analyzes a circuit (--qasm <file> or --ansatz\n"
      "variance|training|motivational; --rules lists rules QB001-QB011\n"
      "and QN120;\n"
      "--verify-plan also verifies the compiled execution plan, QP1xx);\n"
      "variance/train/sweep accept --lint=off|warn|error (default warn)\n"
      "to gate the launch on the same analysis, and --verify-plans to\n"
      "statically verify every compiled plan on first attach (results\n"
      "are byte-identical to an unverified run).\n"
      "long runs accept --checkpoint <file> [--resume]; train/sweep also\n"
      "accept --deadline-sec <s> and --nonfinite throw|abort|fallback.\n"
      "variance/train/sweep run cells in parallel: --jobs <n> (0 = all\n"
      "cores), --cell-timeout-sec <s>, --max-cell-failures <k>,\n"
      "--cell-retries <r>; results are identical at any --jobs value.\n"
      "<subcommand> --help prints this text. see the header of\n"
      "examples/qbarren_cli.cpp for per-command options; an option the\n"
      "subcommand does not take exits 1.\n",
      kVersionString);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      print_help();
      return 0;
    }
    const std::string command = argv[1];
    const CliArgs args(argc - 1, argv + 1, allowed_options(command));
    // `--help`, alone or after any subcommand, prints the usage before any
    // work starts.
    if (command == "--help" || args.has("help")) {
      print_help();
      return 0;
    }
    if (command == "variance") return cmd_variance(args);
    if (command == "train") return cmd_train(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "landscape") return cmd_landscape(args);
    if (command == "express") return cmd_express(args);
    if (command == "lightcone") return cmd_lightcone(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "audit") return cmd_audit(args);
    if (command == "fsck") return cmd_fsck(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "worker") return qbarren::serve::worker_main(0, 1);
    if (command == "submit") return cmd_submit(args);
    print_help();
    std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                 command.c_str());
    return qbarren::kExitFailure;
  } catch (const qbarren::PlanVerificationError& e) {
    // A compiled plan failed static verification: a miscompile (or a
    // corrupted plan) would poison every figure, so the run aborts before
    // using it. The findings name the exact inconsistency.
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 qbarren::diagnostics_table(e.diagnostics())
                     .to_ascii()
                     .c_str());
    return qbarren::kExitFailure;
  } catch (const qbarren::Cancelled& e) {
    // Completed checkpoint cells were flushed before this propagated;
    // rerun with --resume to finish. kExitInterrupted matches the shell
    // convention for SIGINT termination.
    std::fprintf(stderr,
                 "interrupted: %s\n"
                 "rerun with the same options plus --resume to continue\n",
                 e.what());
    return qbarren::kExitInterrupted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return qbarren::kExitFailure;
  }
}
