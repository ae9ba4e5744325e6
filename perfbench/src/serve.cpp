// serve-roundtrip: an ExperimentService with two worker processes and an
// in-memory cache, as `serve --once` runs it. Workers re-execute this
// binary in worker mode. A unit is two requests sent as NDJSON text:
//   * a repeat of the q<=8 Fig 5a request, answered from the warm cache;
//   * a fresh-seed q in {2,4} request the workers compute.
// Admission, IPC, checkpoint encode/restore and JSON do most of the work.
#include <stdexcept>
#include <string>
#include <vector>

#include "qbarren/analysis/admission.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/serve/protocol.hpp"
#include "qbarren/serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qbarren;
using serve::ExperimentService;
using serve::RequestOutcome;
using serve::RequestSpec;

namespace {

constexpr const char* kPrefix = "serve-roundtrip.";
constexpr std::size_t kRssAfterUnits = 200;

RequestSpec variance_request(std::string id, std::vector<std::size_t> qubits,
                             std::size_t circuits, std::size_t layers,
                             std::uint64_t seed) {
  RequestSpec spec;
  spec.id = std::move(id);
  spec.kind = serve::SpecKind::kVariance;
  spec.variance.qubit_counts = std::move(qubits);
  spec.variance.circuits_per_point = circuits;
  spec.variance.layers = layers;
  spec.variance.seed = seed;
  return spec;
}

RequestSpec hit_request(std::uint64_t seed) {
  return variance_request("hit", {2, 4, 6, 8}, kServeHitCircuits, 50, seed);
}

/// Unit `n`'s fresh request: a seed no earlier unit used, so every cell
/// misses the cache. Kept below 2^63: the wire format carries seeds as
/// signed 64-bit integers.
RequestSpec fresh_request(std::uint64_t seed, std::size_t n) {
  return variance_request("fresh-" + std::to_string(n), {2, 4},
                          kServeFreshCircuits, 50,
                          (seed * 1000003ULL + n + 1) & (~0ULL >> 1));
}

/// The smallest admitted request: what a fresh service answers first.
RequestSpec probe_request() {
  return variance_request("probe", {2}, 2, 1, 1);
}

serve::ServiceOptions service_options(const RunOptions& run) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.worker_argv = {run.self_exe, "worker"};
  return options;
}

std::string in_process_json(const RequestSpec& spec) {
  RunControl control;
  control.jobs = 1;
  return to_json(VarianceExperiment(spec.variance)
                     .run_paper_set(FanMode::kLayerTensor, control))
      .dump();
}

/// The cached request's result JSON, kept as its hash and length.
JsonValue signature_of(const std::string& hit_json) {
  JsonValue sig = JsonValue::object();
  sig.set("hit_result_fnv1a64", fnv1a64(hit_json));
  sig.set("hit_result_bytes", hit_json.size());
  return sig;
}

/// Arrival times of one request's stages, as a client reading the NDJSON
/// event stream sees them.
struct Timeline {
  Clock::time_point submitted{};  ///< request text in hand
  Clock::time_point parsed{};     ///< spec parsed, run_request called
  Clock::time_point admitted{};
  Clock::time_point last_cell{};
  Clock::time_point done{};
};

RequestOutcome submit(ExperimentService& service, const std::string& line,
                      Timeline& timeline) {
  timeline.submitted = Clock::now();
  const RequestSpec spec = serve::request_from_json(parse_json(line));
  timeline.parsed = Clock::now();
  return service.run_request(spec, [&timeline](const JsonValue& event) {
    // Encoded as `serve` writes it to its client.
    (void)serve::ndjson_line(event);
    const Clock::time_point now = Clock::now();
    const std::string& kind = event.at("event").as_string();
    if (kind == "admitted") timeline.admitted = now;
    if (kind == "cell") timeline.last_cell = now;
    if (kind == "done") timeline.done = now;
  });
}

void expect_ok(const RequestOutcome& outcome, std::size_t cached,
               std::size_t computed, const std::string& expected_json,
               const char* what) {
  if (outcome.status != RequestOutcome::Status::kOk) {
    throw std::runtime_error(std::string("serve-roundtrip: ") + what +
                             " request ended " +
                             serve::request_status_name(outcome.status));
  }
  if (outcome.cached != cached || outcome.computed != computed ||
      outcome.retries != 0 || outcome.worker_deaths != 0) {
    throw std::runtime_error(std::string("serve-roundtrip: ") + what +
                             " request served unexpected cell counts");
  }
  if (outcome.result.dump() != expected_json) {
    throw std::runtime_error(std::string("serve-roundtrip: ") + what +
                             " result differs from the in-process run");
  }
}

/// Times service construction through the pool's first answer: a fresh
/// service serving the probe request.
class SetupProbe {
 public:
  explicit SetupProbe(const RunOptions& run)
      : options_(service_options(run)),
        line_(serve::ndjson_line(serve::to_json(probe_request()))),
        expected_(in_process_json(probe_request())) {}

  void sample(std::vector<double>& samples) const {
    const Clock::time_point start = Clock::now();
    ExperimentService service(options_);
    Timeline timeline;
    const RequestOutcome outcome = submit(service, line_, timeline);
    samples.push_back(seconds_between(start, Clock::now()));
    expect_ok(outcome, 0, outcome.cells, expected_, "probe");
  }

 private:
  serve::ServiceOptions options_;
  std::string line_;
  std::string expected_;
};

/// One unit: the cached request, then a fresh one.
struct Round {
  RequestSpec fresh;
  Timeline hit;
  Timeline miss;
  RequestOutcome hit_outcome;
  RequestOutcome miss_outcome;
  double seconds = 0.0;
};

/// The long-lived service of a run, its cache warmed with the hit request.
class Session {
 public:
  explicit Session(const RunOptions& run)
      : seed_(run.seed),
        service_(service_options(run)),
        hit_line_(serve::ndjson_line(serve::to_json(hit_request(run.seed)))),
        hit_json_(in_process_json(hit_request(run.seed))) {
    Timeline timeline;
    const RequestOutcome warm = submit(service_, hit_line_, timeline);
    expect_ok(warm, 0, warm.cells, hit_json_, "warm-up");
    hit_cells_ = warm.cells;
  }

  /// Runs unit `n`, timed from the first request's text in hand to the
  /// second's return.
  Round round(std::size_t n) {
    Round r;
    r.fresh = fresh_request(seed_, n);
    const std::string fresh_line = serve::ndjson_line(serve::to_json(r.fresh));
    const Clock::time_point start = Clock::now();
    r.hit_outcome = submit(service_, hit_line_, r.hit);
    r.miss_outcome = submit(service_, fresh_line, r.miss);
    r.seconds = seconds_between(start, Clock::now());
    return r;
  }

  /// Throws unless both requests completed with the expected cell counts
  /// and results identical to in-process runs.
  void check(const Round& r) const {
    expect_ok(r.hit_outcome, hit_cells_, 0, hit_json_, "cached");
    expect_ok(r.miss_outcome, 0, r.miss_outcome.cells, in_process_json(r.fresh),
              "fresh");
  }

  [[nodiscard]] const std::string& hit_json() const { return hit_json_; }
  [[nodiscard]] std::vector<long> worker_pids() const {
    return service_.worker_pids();
  }

 private:
  std::uint64_t seed_;
  ExperimentService service_;
  std::string hit_line_;
  std::string hit_json_;
  std::size_t hit_cells_ = 0;
};

}  // namespace

JsonValue serve_signature(std::uint64_t seed) {
  return signature_of(in_process_json(hit_request(seed)));
}

void run_serve(const RunOptions& run, const JsonValue& reference,
               Report& report) {
  // Set-up is sampled between units too, so it sees the same host load.
  const SetupProbe probe(run);
  std::vector<double> setup;
  for (int i = 0; i < 5; ++i) probe.sample(setup);
  std::vector<double> units;
  std::vector<double> hits;
  std::size_t items = 0;
  double rss_mib = 0.0;
  {
    ++report.attempted;
    Session session(run);
    if (!reference.is_null() &&
        reference.dump() != signature_of(session.hit_json()).dump()) {
      report.fail("serve-roundtrip: result differs from the stored reference");
    }

    std::size_t n = 0;
    repeat_for(run.seconds, 20, report, [&] {
      if (n % 8 == 0) probe.sample(setup);
      const Round r = session.round(n++);
      units.push_back(r.seconds);
      hits.push_back(seconds_between(r.hit.submitted, r.hit.done));
      session.check(r);
      items = r.hit_outcome.cells + r.miss_outcome.cells;
      // Every fresh request adds its cells to the in-memory cache, so the
      // footprint is read at a fixed unit count, not at a time the host's
      // speed decides.
      if (n == kRssAfterUnits) rss_mib = peak_rss_mib(session.worker_pids());
    });
    if (n < kRssAfterUnits) rss_mib = peak_rss_mib(session.worker_pids());
  }  // the service shuts down here, reaping its workers

  const double scale = report.host_scale();
  report.add("items_per_s",
             static_cast<double>(items) / (fast_decile(units) * scale), "1/s");
  report.add("setup_s", fast_decile(setup) * scale, "s");
  report.add("peak_rss_mib", rss_mib, "MiB");
  report.add("hit_latency_s", fast_decile(hits) * scale, "s");
  note("serve-roundtrip raw (unscaled) times; host scale " +
       std::to_string(scale));
  note("serve-roundtrip unit_s " + describe(units));
  note("serve-roundtrip hit_latency_s " + describe(hits));
  note("serve-roundtrip setup_s " + describe(setup));
}

void trace_serve(const RunOptions& run, Report& report) {
  Session session(run);
  std::size_t n = 0;

  // The traced unit is the same round, its stages read from the event
  // timestamps; the admission check is repeated on its own after it. An
  // untraced round precedes each traced one, so both see the same load.
  LayerTrace trace;
  std::vector<double> runner;
  std::vector<double> traced_units;
  repeat_for(run.seconds, 5, report, [&] {
    runner.push_back(session.round(n++).seconds);
    const Round r = session.round(n++);
    traced_units.push_back(r.seconds);

    trace.count("serve.parse_s", seconds_between(r.hit.submitted, r.hit.parsed) +
                                     seconds_between(r.miss.submitted,
                                                     r.miss.parsed));
    trace.count("serve.admit_s", seconds_between(r.hit.parsed, r.hit.admitted));
    trace.count("serve.hit_assembly_s",
                seconds_between(r.hit.admitted, r.hit.done));
    trace.count("serve.miss_dispatch_s",
                seconds_between(r.miss.admitted, r.miss.last_cell));
    const Clock::time_point now = Clock::now();
    for (const RequestSpec& spec : {hit_request(run.seed), r.fresh}) {
      if (!admission_check(spec.variance).admitted) {
        throw std::runtime_error("serve-roundtrip: admission rejected");
      }
    }
    trace.span("analysis.admission_s", now);
    for (const RequestOutcome* outcome : {&r.hit_outcome, &r.miss_outcome}) {
      trace.count("serve.cells_cached", static_cast<double>(outcome->cached));
      trace.count("serve.cells_computed",
                  static_cast<double>(outcome->computed));
      trace.count("serve.retries", static_cast<double>(outcome->retries));
      trace.count("serve.worker_deaths",
                  static_cast<double>(outcome->worker_deaths));
      trace.count("common.result_json_bytes",
                  static_cast<double>(outcome->result.dump().size()));
    }
    trace.end_unit();
    session.check(r);
  });

  const std::string prefix = kPrefix;
  for (const char* stage :
       {"serve.parse_s", "analysis.admission_s", "serve.admit_s",
        "serve.hit_assembly_s", "serve.miss_dispatch_s"}) {
    report.add(prefix + stage, fast_decile(trace.samples(stage)), "s");
  }
  for (const char* count :
       {"serve.cells_cached", "serve.cells_computed", "serve.retries",
        "serve.worker_deaths"}) {
    report.add(prefix + count, quantile(trace.samples(count), 0.5), "count");
  }
  report.add(prefix + "common.result_json_bytes",
             quantile(trace.samples("common.result_json_bytes"), 0.5), "B");
  report.add(prefix + "trace.overhead",
             fast_decile(traced_units) / fast_decile(runner) - 1.0, "ratio");

  note("serve-roundtrip runner unit_s " + describe(runner));
  note("serve-roundtrip traced unit_s " + describe(traced_units));
  for (const std::string& name : trace.names()) {
    note("serve-roundtrip " + name + " " + describe(trace.samples(name)));
  }
}

}  // namespace perfbench
