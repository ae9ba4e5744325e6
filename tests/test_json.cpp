// Tests for the JSON builder and experiment-result serialization.
#include "qbarren/common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "fnv1a.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue::null().dump(), "null");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue::boolean(false).dump(), "false");
  EXPECT_EQ(JsonValue::integer(-42).dump(), "-42");
  EXPECT_EQ(JsonValue::integer(0).dump(), "0");
  EXPECT_EQ(
      JsonValue::integer(std::numeric_limits<std::int64_t>::min()).dump(),
      "-9223372036854775808");
  EXPECT_EQ(
      JsonValue::integer(std::numeric_limits<std::int64_t>::max()).dump(),
      "9223372036854775807");
  EXPECT_EQ(JsonValue::number(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(
      JsonValue::number(std::numeric_limits<double>::quiet_NaN()).dump(),
      "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::string("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::string("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue::string("a\nb\t").dump(), "\"a\\nb\\t\"");
  EXPECT_EQ(JsonValue::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects) {
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::integer(1));
  arr.push_back(JsonValue::string("two"));
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");

  JsonValue obj = JsonValue::object();
  obj.set("b", 2.5);
  obj.set("a", std::int64_t{1});
  // std::map ordering -> keys sorted.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2.5}");

  EXPECT_EQ(JsonValue::array().dump(), "[]");
  EXPECT_EQ(JsonValue::object().dump(), "{}");
}

TEST(Json, NestedAndPrettyPrinted) {
  JsonValue obj = JsonValue::object();
  JsonValue inner = JsonValue::array();
  inner.push_back(JsonValue::integer(1));
  obj.set("xs", std::move(inner));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("{\n  \"xs\": [\n    1\n  ]\n}"),
            std::string::npos);
}

TEST(Json, TypeMisuseThrows) {
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", 1.0), InvalidArgument);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push_back(JsonValue::null()), InvalidArgument);
  JsonValue scalar = JsonValue::integer(1);
  EXPECT_THROW(scalar.push_back(JsonValue::null()), InvalidArgument);
}

TEST(Json, NumberArrayHelper) {
  const JsonValue arr = JsonValue::number_array({0.5, 1.5});
  EXPECT_EQ(arr.dump(), "[0.5,1.5]");
}

// --- number rendering ---------------------------------------------------------
//
// Numbers render as printf's %.17g. Result files, serve events and cache
// keys are compared byte for byte across versions, so the rendering is
// pinned for edge doubles (fixtures/json_number_pins.txt) and checked
// against snprintf on seeded random doubles.

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonNumberPins, EdgeDoublesMatchTheFixture) {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) +
                   "/json_number_pins.txt");
  ASSERT_TRUE(in) << "cannot open fixtures/json_number_pins.txt";
  std::size_t checked = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string bits;
    std::string expected;
    fields >> bits >> expected;
    const double v = std::bit_cast<double>(std::stoull(bits, nullptr, 16));
    EXPECT_EQ(JsonValue::number(v).dump(), expected) << bits;
    EXPECT_EQ(printf_17g(v), expected) << bits;
    ++checked;
  }
  EXPECT_GE(checked, 50u);
}

TEST(JsonNumberPins, RandomDoublesRenderAsPrintf17g) {
  std::mt19937_64 engine(24);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < 50000; ++i) {
    const int exponent = static_cast<int>(engine() % 120) - 60;
    const double values[] = {
        std::bit_cast<double>(engine()),  // any finite double
        unit(engine),
        (unit(engine) - 0.5) * std::ldexp(1.0, exponent),
        std::round(unit(engine) * 1e18),  // integers stored as doubles
    };
    for (const double v : values) {
      if (!std::isfinite(v)) continue;
      const std::string expected = printf_17g(v);
      if (JsonValue::number(v).dump() != expected) {
        if (mismatches++ == 0) first_mismatch = expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first_mismatch;
}

// --- number parsing -----------------------------------------------------------

TEST(JsonParseNumber, RejectsTokensOutsideTheGrammar) {
  struct Case {
    const char* token;
    const char* error;
  };
  const Case cases[] = {
      {"+1", "invalid number"},       {".5", "invalid number"},
      {"1.", "invalid number"},       {"01", "invalid number"},
      {"-01", "invalid number"},      {"00", "invalid number"},
      {"1.e3", "invalid number"},     {"-", "invalid number"},
      {"1e", "invalid number"},       {"1e+", "invalid number"},
      {"--1", "invalid number"},      {"-.5", "invalid number"},
      {"NaN", "invalid number"},      {"-Infinity", "invalid number"},
      {"1e999", "number out of range"},
      {"-1e999", "number out of range"},
      {"1.8e308", "number out of range"},
  };
  for (const Case& c : cases) {
    for (const std::string& text :
         {std::string(c.token), "{\"learning_rate\": " + std::string(c.token) +
                                    "}"}) {
      try {
        (void)parse_json(text);
        ADD_FAILURE() << "accepted " << text;
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
            << text << ": " << e.what();
      }
    }
  }
}

TEST(JsonParseNumber, AcceptsGrammaticalFiniteNumbers) {
  struct Case {
    const char* token;
    double value;
    bool integer;
  };
  const Case cases[] = {
      {"0", 0.0, true},
      {"-0", 0.0, true},  // int64 has no -0
      {"42", 42.0, true},
      {"-9223372036854775808", -9223372036854775808.0, true},
      {"9223372036854775808", 9223372036854775808.0, false},
      {"1E+2", 100.0, false},
      {"1e-05", 1e-05, false},
      {"-0.0", -0.0, false},
      {"0.5", 0.5, false},
      {"-2.5e-3", -2.5e-3, false},
      {"5e-324", std::numeric_limits<double>::denorm_min(), false},
      {"2.2250738585072009e-308", 2.2250738585072009e-308, false},
      {"1.7976931348623157e+308", std::numeric_limits<double>::max(), false},
      {"1e-999", 0.0, false},
  };
  for (const Case& c : cases) {
    const JsonValue v = parse_json(c.token);
    EXPECT_EQ(v.is_integer(), c.integer) << c.token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.as_number()),
              std::bit_cast<std::uint64_t>(c.value))
        << c.token;
  }
}

TEST(JsonParseNumber, DumpedDoublesReadBackBitForBit) {
  std::mt19937_64 engine(8259);
  JsonValue arr = JsonValue::array();
  std::vector<double> values;
  while (values.size() < 20000) {
    const double v = std::bit_cast<double>(engine());
    if (!std::isfinite(v) || (v == 0.0 && std::signbit(v))) continue;
    values.push_back(v);
    arr.push_back(JsonValue::number(v));
  }
  const JsonValue back = parse_json(arr.dump());
  ASSERT_EQ(back.size(), values.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(back.at(i).as_number()) !=
        std::bit_cast<std::uint64_t>(values[i])) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, WriteFileRoundTrip) {
  JsonValue obj = JsonValue::object();
  obj.set("k", std::int64_t{7});
  const std::string path = ::testing::TempDir() + "/qbarren_json_test.json";
  write_json_file(obj, path, 0);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"k\":7}\n");
  std::remove(path.c_str());
  EXPECT_THROW(write_json_file(obj, "/no-such-dir-zz/x.json"), Error);
}

TEST(Serialize, VarianceResultSchema) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 6;
  options.layers = 5;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), xavier.get()});

  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.variance.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"initializer\":\"random\""), std::string::npos);
  EXPECT_NE(json.find("\"initializer\":\"xavier-normal\""),
            std::string::npos);
  EXPECT_NE(json.find("\"improvement_vs_random_percent\""),
            std::string::npos);
  EXPECT_NE(json.find("\"decay_fit\""), std::string::npos);
  EXPECT_NE(json.find("\"circuits_per_point\":6"), std::string::npos);
}

TEST(Serialize, VarianceImprovementIsNullOnDegenerateBaseline) {
  // A single qubit count leaves the random series without a usable decay
  // fit; the improvement field stays in the schema but carries null
  // instead of disappearing.
  VarianceExperimentOptions options;
  options.qubit_counts = {2};
  options.circuits_per_point = 6;
  options.layers = 5;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), xavier.get()});
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"improvement_vs_random_percent\":null"),
            std::string::npos);
}

TEST(Serialize, TrainingResultSchema) {
  TrainingExperimentOptions options;
  options.qubits = 2;
  options.layers = 1;
  options.iterations = 3;
  const auto xavier = make_initializer("xavier-normal");
  const TrainingResult result =
      TrainingExperiment(options).run({xavier.get()});
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.training.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"loss_history\":["), std::string::npos);
  EXPECT_NE(json.find("\"optimizer\":\"gradient-descent\""),
            std::string::npos);
}

TEST(Serialize, LandscapeResultSchema) {
  LandscapeOptions options;
  options.qubits = 2;
  options.layers = 3;
  options.grid_points = 4;
  const LandscapeResult result = scan_landscape(options);
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.landscape.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"values_row_major\":["), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"random_background\":true"), std::string::npos);
}

// --- pinned result bytes -------------------------------------------------------
//
// FNV-1a digests of to_json(result).dump() for a small variance, training
// and landscape run (fixtures/result_json_digests.txt). A change to a
// computed result or to its rendering changes one of them.

std::map<std::string, std::string> result_digests() {
  const auto digest = [](const JsonValue& json) {
    test_support::Fnv1a h;
    h.text(json.dump());
    return test_support::hex(h.value());
  };
  RunControl control;
  control.jobs = 1;
  std::map<std::string, std::string> out;
  {
    VarianceExperimentOptions options;
    options.qubit_counts = {2, 3, 4};
    options.circuits_per_point = 8;
    options.layers = 4;
    options.seed = 11;
    out["variance"] = digest(to_json(VarianceExperiment(options).run_paper_set(
        FanMode::kLayerTensor, control)));
  }
  {
    TrainingExperimentOptions options;
    options.qubits = 3;
    options.layers = 2;
    options.iterations = 10;
    options.seed = 11;
    out["training"] = digest(to_json(TrainingExperiment(options).run_paper_set(
        FanMode::kLayerTensor, control)));
  }
  {
    LandscapeOptions options;
    options.layers = 3;
    options.grid_points = 5;
    out["landscape"] = digest(to_json(scan_landscape(options)));
  }
  return out;
}

TEST(Serialize, ResultJsonDigestsArePinned) {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) +
                   "/result_json_digests.txt");
  ASSERT_TRUE(in) << "cannot open fixtures/result_json_digests.txt";
  std::map<std::string, std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    pinned[name] = digest;
  }
  const std::map<std::string, std::string> computed = result_digests();
  for (const auto& [name, value] : computed) {
    EXPECT_EQ(value, pinned[name]) << name;
  }
  EXPECT_EQ(pinned.size(), computed.size());
}

}  // namespace
}  // namespace qbarren
