// qbarren_perfbench: the benchmark's binary (perfbench/run.py builds and
// runs it).
//
//   qbarren_perfbench run --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> --reference <file>
//   qbarren_perfbench record --reference <file> --seeds <n,n,...>
//   qbarren_perfbench worker        (serve worker; spawned by the service)
//
// `run` prints report lines ("# ...") and, as its last stdout line, the
// result JSON. With --trace 0 it runs one workload end to end; with
// --trace 1 it replays all three workloads layer by layer, so every traced
// run reports every per-layer metric. `record` writes the reference
// signatures the untraced runs compare against.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "qbarren/common/json.hpp"
#include "qbarren/serve/worker.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;
using qbarren::JsonValue;

const char* const kWorkloads[] = {"fig5a-grid", "train-fig5bc",
                                  "serve-roundtrip"};

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key +
                                  "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags,
                     const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buffer[n] = '\0';
  return buffer;
}

JsonValue read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return qbarren::parse_json(text.str());
}

/// The stored signature of `workload` at `seed`, or null when the
/// reference file has none for that seed.
JsonValue stored_reference(const std::string& path, std::uint64_t seed,
                           const std::string& workload) {
  const JsonValue refs = read_json(path);
  const std::string key = std::to_string(seed);
  if (!refs.at("seeds").contains(key)) {
    perfbench::note("no stored reference for seed " + key +
                    "; checking units against each other only");
    return JsonValue::null();
  }
  return refs.at("seeds").at(key).at(workload);
}

int record(const std::map<std::string, std::string>& flags) {
  JsonValue seeds = JsonValue::object();
  std::stringstream list(required(flags, "seeds"));
  for (std::string item; std::getline(list, item, ',');) {
    const std::uint64_t seed = std::stoull(item);
    JsonValue entry = JsonValue::object();
    entry.set("fig5a-grid", perfbench::fig5a_signature(seed));
    entry.set("train-fig5bc", perfbench::train_signature(seed));
    entry.set("serve-roundtrip", perfbench::serve_signature(seed));
    seeds.set(std::to_string(seed), std::move(entry));
  }
  JsonValue root = JsonValue::object();
  root.set("seeds", std::move(seeds));
  std::ofstream out(required(flags, "reference"), std::ios::binary);
  out << root.dump(1) << '\n';
  return out ? 0 : 1;
}

int run(const std::map<std::string, std::string>& flags) {
  const std::string workload = required(flags, "workload");
  bool known = false;
  for (const char* name : kWorkloads) known = known || workload == name;
  if (!known) throw std::invalid_argument("unknown workload '" + workload + "'");

  RunOptions options;
  options.seed = std::stoull(required(flags, "seed"));
  options.seconds = std::stod(required(flags, "seconds"));
  options.self_exe = self_exe();
  const bool traced = required(flags, "trace") == "1";
  const std::string reference_path = required(flags, "reference");

  Report report;
  if (!traced) {
    const JsonValue reference =
        stored_reference(reference_path, options.seed, workload);
    if (workload == "fig5a-grid") perfbench::run_fig5a(options, reference, report);
    if (workload == "train-fig5bc") perfbench::run_train(options, reference, report);
    if (workload == "serve-roundtrip") perfbench::run_serve(options, reference, report);
  } else {
    RunOptions share = options;
    share.seconds = options.seconds / 3.0;
    perfbench::trace_fig5a(share, report);
    perfbench::trace_train(share, report);
    perfbench::trace_serve(share, report);
    report.add("host.ref_unit_s", perfbench::fast_decile(report.host_ref_s),
               "s");
  }
  perfbench::note("host.ref_unit_s " + perfbench::describe(report.host_ref_s));
  std::printf("%s\n", report.json_line().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "worker") return qbarren::serve::worker_main(0, 1);
  try {
    if (mode == "run") return run(parse_flags(argc, argv, 2));
    if (mode == "record") return record(parse_flags(argc, argv, 2));
    std::fprintf(stderr, "usage: qbarren_perfbench run|record|worker ...\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbarren_perfbench: %s\n", e.what());
  }
  return 1;
}
