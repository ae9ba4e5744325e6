// The experiment options surface: fingerprints, request JSON and decode
// errors. Checkpoints, the serve result cache and `fsck` key on the
// fingerprints, and clients and workers speak the request JSON, so both
// are pinned byte for byte in fixtures/options_surface_pins.txt. All of
// it is generated from the options tables (bp/options_table.hpp), whose
// QD102/QD103 probes must catch a broken entry whatever the option values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/bp/options_table.hpp"

#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/json.hpp"
#include "qbarren/serve/protocol.hpp"

namespace qbarren {
namespace {

serve::RequestSpec variance_request(const std::string& id,
                                    const VarianceExperimentOptions& options) {
  serve::RequestSpec spec;
  spec.id = id;
  spec.kind = serve::SpecKind::kVariance;
  spec.variance = options;
  return spec;
}

serve::RequestSpec training_request(const std::string& id,
                                    const TrainingExperimentOptions& options) {
  serve::RequestSpec spec;
  spec.id = id;
  spec.kind = serve::SpecKind::kTraining;
  spec.training = options;
  return spec;
}

/// "<Type>: <message>" of what decoding `request` throws.
std::string decode_error(const std::string& request) {
  try {
    (void)serve::request_from_json(parse_json(request));
  } catch (const NotFound& e) {
    return std::string("NotFound: ") + e.what();
  } catch (const InvalidArgument& e) {
    return std::string("InvalidArgument: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  }
  return "no error";
}

/// The pinned lines: "<name> <what> <bytes>".
std::vector<std::string> options_surface() {
  std::vector<std::string> lines;
  const auto add_request = [&lines](const std::string& name,
                                    const serve::RequestSpec& spec) {
    lines.push_back(name + " fingerprint " + serve::spec_fingerprint(spec));
    std::string line = serve::ndjson_line(serve::to_json(spec));
    EXPECT_EQ(line.back(), '\n') << name;
    line.pop_back();
    lines.push_back(name + " request " + line);
  };
  const auto add_sweep = [&lines](const std::string& name,
                                  const TrainingSweepOptions& options) {
    lines.push_back(name + " fingerprint " + options_fingerprint(options));
  };

  // The paper's experiments.
  add_request("variance-paper",
              variance_request("fig5a", VarianceExperimentOptions{}));
  add_request("training-paper",
              training_request("fig5b", TrainingExperimentOptions{}));
  add_sweep("sweep-paper", TrainingSweepOptions{});

  // Every field away from its default, spelled out by hand.
  {
    VarianceExperimentOptions o;
    o.qubit_counts = {3, 5};
    o.circuits_per_point = 7;
    o.layers = 4;
    o.cost = CostKind::kLocalZero;
    o.seed = 0xFFFFFFFFFFFFFFF0ull;  // crosses the wire as a negative int64
    o.entangle = false;
    o.gradient_engine = "adjoint";
    o.which_parameter = GradientParameter::kMiddle;
    o.entangler = EntanglerGate::kCnot;
    o.topology = EntanglerTopology::kRing;
    o.keep_samples = true;
    serve::RequestSpec spec = variance_request("cnot-ring", o);
    spec.max_cell_failures = 2;
    spec.max_cell_attempts = 3;
    spec.deadline_seconds = 30.5;
    add_request("variance-cnot-ring", spec);
  }
  {
    VarianceExperimentOptions o;
    o.qubit_counts = {4};
    o.cost = CostKind::kPauliZZ;
    o.seed = 9;
    o.which_parameter = GradientParameter::kFirst;
    o.entangler = EntanglerGate::kCnot;
    o.topology = EntanglerTopology::kAllToAll;
    add_request("variance-cnot-all-to-all", variance_request("a2a", o));
  }
  {
    TrainingExperimentOptions o;
    o.qubits = 4;
    o.layers = 2;
    o.iterations = 9;
    o.learning_rate = 0.05;
    o.optimizer = "adam";
    o.gradient_engine = "parameter-shift";
    o.cost = CostKind::kLocalZero;
    o.seed = 123;
    o.non_finite_policy = NonFinitePolicy::kAbortSeries;
    o.deadline_seconds = 12.5;
    add_request("training-abort-deadline", training_request("abort", o));
    TrainingSweepOptions sweep;
    sweep.base = o;
    sweep.repetitions = 3;
    add_sweep("sweep-abort-deadline", sweep);
  }
  {
    TrainingExperimentOptions o;
    o.cost = CostKind::kPauliZZ;
    o.non_finite_policy = NonFinitePolicy::kFallbackEngine;
    add_request("training-fallback", training_request("fallback", o));
  }

  // Malformed options objects.
  const auto v = [](const std::string& options) {
    return R"({"id":"e","kind":"variance","options":)" + options + "}";
  };
  const auto t = [](const std::string& options) {
    return R"({"id":"e","kind":"training","options":)" + options + "}";
  };
  const std::vector<std::pair<std::string, std::string>> malformed = {
      {"variance-unknown-key", v(R"({"qubits":[2]})")},
      {"training-unknown-key", t(R"({"entangler":"cz"})")},
      {"variance-negative-size", v(R"({"circuits_per_point":-1})")},
      {"training-negative-size", t(R"({"iterations":-3})")},
      {"variance-qubit-count-zero", v(R"({"qubit_counts":[2,0]})")},
      {"variance-unknown-cost", v(R"({"cost":"bogus"})")},
      {"training-unknown-cost", t(R"({"cost":"bogus"})")},
      {"variance-unknown-which-parameter",
       v(R"({"which_parameter":"center"})")},
      {"variance-unknown-entangler", v(R"({"entangler":"cx"})")},
      {"variance-unknown-topology", v(R"({"topology":"star"})")},
      {"training-unknown-non-finite-policy",
       t(R"({"non_finite_policy":"ignore"})")},
  };
  for (const auto& [name, request] : malformed) {
    lines.push_back(name + " error " + decode_error(request));
  }
  return lines;
}

TEST(OptionsSurface, FingerprintsRequestsAndDecodeErrorsArePinned) {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) +
                   "/options_surface_pins.txt");
  ASSERT_TRUE(in) << "cannot open fixtures/options_surface_pins.txt";
  std::vector<std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    pinned.push_back(line);
  }
  const std::vector<std::string> actual = options_surface();
  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], pinned[i]);
  }
}

TEST(OptionsSurface, PinnedRequestsDecodeToTheirFingerprints) {
  // Every pinned request line parses back to the options it encodes.
  const std::vector<std::string> lines = options_surface();
  for (const std::string& line : lines) {
    const std::size_t at = line.find(" request ");
    if (at == std::string::npos) continue;
    const std::string name = line.substr(0, at);
    const serve::RequestSpec spec =
        serve::request_from_json(parse_json(line.substr(at + 9)));
    const std::string fingerprint_line =
        name + " fingerprint " + serve::spec_fingerprint(spec);
    EXPECT_NE(std::find(lines.begin(), lines.end(), fingerprint_line),
              lines.end())
        << name;
  }
}

// --- a broken table entry is caught ---------------------------------------

/// The fields of `table` with field `key` changed by `breakage`.
template <typename Options, typename Breakage>
std::vector<OptionField<Options>> broken_fields(
    const OptionsTable<Options>& table, const std::string& key,
    Breakage breakage) {
  std::vector<OptionField<Options>> fields(table.fields.begin(),
                                           table.fields.end());
  const auto it = std::find_if(
      fields.begin(), fields.end(),
      [&key](const OptionField<Options>& field) { return field.key == key; });
  EXPECT_NE(it, fields.end()) << key;
  if (it != fields.end()) breakage(*it);
  return fields;
}

std::size_t count_code(const Diagnostics& diagnostics, const char* code) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [code](const Diagnostic& d) { return d.code == code; }));
}

TEST(OptionsTableDrift, FingerprintThatDropsAFieldIsQD102) {
  const auto fields = broken_fields(
      kVarianceOptionsTable, "layers",
      [](OptionField<VarianceExperimentOptions>& field) {
        field.fingerprint = [](const VarianceExperimentOptions&,
                               std::string&) {};
      });
  const OptionsTable<VarianceExperimentOptions> broken{
      kVarianceOptionsTable.name, kVarianceOptionsTable.version, fields};
  const Diagnostics diagnostics =
      audit_fingerprint_probes(options_table_probes(broken), "variance");
  ASSERT_EQ(count_code(diagnostics, "QD102"), 1u);
  EXPECT_EQ(diagnostics.front().severity, Severity::kError);
  EXPECT_EQ(diagnostics.front().location, "variance option layers");
}

TEST(OptionsTableDrift, WireCodecThatDropsAFingerprintedFieldIsQD103) {
  const auto fields = broken_fields(
      kVarianceOptionsTable, "entangler",
      [](OptionField<VarianceExperimentOptions>& field) {
        field.encode = [](const VarianceExperimentOptions&, JsonValue&,
                          const char*) {};
      });
  const OptionsTable<VarianceExperimentOptions> broken{
      kVarianceOptionsTable.name, kVarianceOptionsTable.version, fields};
  const Diagnostics diagnostics =
      audit_fingerprint_probes(options_table_probes(broken), "variance");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.front().code, "QD103");
  EXPECT_EQ(diagnostics.front().severity, Severity::kError);
  EXPECT_NE(diagnostics.front().message.find("do not carry 'entangler'"),
            std::string::npos)
      << diagnostics.front().message;
}

TEST(OptionsTableDrift, DecoderThatGarblesAFieldFailsTheRoundTrip) {
  const auto fields = broken_fields(
      kTrainingOptionsTable, "learning_rate",
      [](OptionField<TrainingExperimentOptions>& field) {
        field.decode = [](const JsonValue& value, const char*,
                          TrainingExperimentOptions& options) {
          options.learning_rate = value.as_number() * 10.0;  // wrong unit
        };
      });
  const OptionsTable<TrainingExperimentOptions> broken{
      kTrainingOptionsTable.name, kTrainingOptionsTable.version, fields};
  // Every probe's wire form carries the learning rate, so every
  // result-affecting probe's round trip comes back wrong.
  const Diagnostics diagnostics =
      audit_fingerprint_probes(options_table_probes(broken), "training");
  EXPECT_EQ(count_code(diagnostics, "QD103"), 9u);
  EXPECT_EQ(diagnostics.size(), 9u);
  EXPECT_TRUE(has_errors(diagnostics));
  EXPECT_TRUE(std::any_of(
      diagnostics.begin(), diagnostics.end(), [](const Diagnostic& d) {
        return d.message.find("drops or garbles 'learning_rate'") !=
               std::string::npos;
      }));
}

// --- verdicts do not depend on the option values -----------------------------

/// Per probe: does the fingerprint move, does the wire form move, and does
/// the decoded wire form recover the perturbed fingerprint.
using Verdict = std::tuple<std::string, bool, bool, bool>;

std::vector<Verdict> verdicts(const std::vector<FingerprintProbe>& probes) {
  std::vector<Verdict> out;
  for (const FingerprintProbe& p : probes) {
    out.emplace_back(p.field, p.perturbed != p.base,
                     p.wire_perturbed != p.wire_base,
                     p.wire_roundtrip == p.perturbed);
  }
  return out;
}

/// Random values from the domain a request can carry: sizes and counts
/// below 2^62, finite doubles, printable strings.
class RandomOptions {
 public:
  explicit RandomOptions(std::uint64_t seed) : engine_(seed) {}

  std::size_t size() {
    return std::uniform_int_distribution<std::size_t>(
               0, std::size_t{1} << 62)(engine_) >>
           (coin() ? 0 : 56);  // short decimals half the time
  }
  std::uint64_t u64() { return engine_(); }
  bool coin() { return (engine_() & 1) != 0; }
  template <typename Enum>
  Enum pick(std::size_t n) {
    return static_cast<Enum>(engine_() % n);
  }
  double finite() {
    const double mantissa =
        std::uniform_real_distribution<double>(0.5, 1.0)(engine_);
    const int exponent =
        std::uniform_int_distribution<int>(-1000, 1000)(engine_);
    return (coin() ? 1.0 : -1.0) * std::ldexp(mantissa, exponent);
  }
  std::string text() {
    std::string s(engine_() % 13, ' ');
    for (char& c : s) c = static_cast<char>(0x20 + engine_() % 95);
    return s;
  }

  VarianceExperimentOptions variance() {
    VarianceExperimentOptions o;
    o.qubit_counts.resize(1 + engine_() % 6);
    for (std::size_t& q : o.qubit_counts) q = std::max<std::size_t>(1, size());
    o.circuits_per_point = size();
    o.layers = size();
    o.cost = pick<CostKind>(3);
    o.seed = u64();
    o.entangle = coin();
    o.gradient_engine = text();
    o.which_parameter = pick<GradientParameter>(3);
    o.entangler = pick<EntanglerGate>(2);
    o.topology = pick<EntanglerTopology>(3);
    o.keep_samples = coin();
    return o;
  }

  TrainingExperimentOptions training() {
    TrainingExperimentOptions o;
    o.qubits = size();
    o.layers = size();
    o.iterations = size();
    o.learning_rate = finite();
    o.optimizer = text();
    o.gradient_engine = text();
    o.cost = pick<CostKind>(3);
    o.seed = u64();
    o.non_finite_policy = pick<NonFinitePolicy>(3);
    o.deadline_seconds =
        coin() ? std::numeric_limits<double>::infinity() : finite();
    return o;
  }

 private:
  std::mt19937_64 engine_;
};

TEST(OptionsTableProbes, VerdictsAtRandomValuesEqualTheDefaults) {
  const std::vector<Verdict> variance_defaults =
      verdicts(options_table_probes(kVarianceOptionsTable));
  const std::vector<Verdict> training_defaults =
      verdicts(options_table_probes(kTrainingOptionsTable));
  RandomOptions random(20261020);
  for (int i = 0; i < 128; ++i) {
    const VarianceExperimentOptions v = random.variance();
    const std::vector<FingerprintProbe> v_probes =
        options_table_probes(kVarianceOptionsTable, v);
    EXPECT_EQ(verdicts(v_probes), variance_defaults)
        << options_fingerprint(v);
    EXPECT_TRUE(audit_fingerprint_probes(v_probes, "variance").empty());

    const TrainingExperimentOptions t = random.training();
    const std::vector<FingerprintProbe> t_probes =
        options_table_probes(kTrainingOptionsTable, t);
    EXPECT_EQ(verdicts(t_probes), training_defaults)
        << options_fingerprint(t);
    EXPECT_TRUE(audit_fingerprint_probes(t_probes, "training").empty());
  }
}

}  // namespace
}  // namespace qbarren
