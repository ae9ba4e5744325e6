#include "qbarren/bp/options_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

namespace qbarren {

namespace {

// Codecs: how values of one type are fingerprinted, written to JSON, read
// back and perturbed. Decoders take the member's JSON value and its key.

/// Writes the value with JsonValue's typed setter.
struct SetCodec {
  template <typename T>
  static void encode(const T& v, JsonValue& object, const char* key) {
    object.set(key, v);
  }
};

struct SizeCodec : SetCodec {
  static void fingerprint(std::size_t v, std::string& out) {
    out += std::to_string(v);
  }
  static std::size_t decode(const JsonValue& value, const char* key) {
    const std::int64_t v = value.as_integer();
    if (v < 0) {
      throw InvalidArgument(std::string("request: '") + key +
                            "' must be non-negative");
    }
    return static_cast<std::size_t>(v);
  }
  static void perturb(std::size_t& v) { ++v; }
};

/// A list of counts, each at least 1 (qubit counts).
struct SizeListCodec {
  using List = std::vector<std::size_t>;
  static void fingerprint(const List& v, std::string& out) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(v[i]);
    }
  }
  static void encode(const List& v, JsonValue& object, const char* key) {
    JsonValue list = JsonValue::array();
    for (const std::size_t n : v) {
      list.push_back(JsonValue::integer(static_cast<std::int64_t>(n)));
    }
    object.set(key, std::move(list));
  }
  static List decode(const JsonValue& value, const char* key) {
    List v;
    for (std::size_t i = 0; i < value.size(); ++i) {
      const std::int64_t n = value.at(i).as_integer();
      if (n < 1) {
        throw InvalidArgument(std::string("request: ") + key +
                              " entries must be >= 1");
      }
      v.push_back(static_cast<std::size_t>(n));
    }
    return v;
  }
  static void perturb(List& v) { v.push_back(v.empty() ? 2 : v.back() + 1); }
};

/// Seeds: JSON integers are int64, so the top half of the range crosses
/// as negative numbers and casts back.
struct U64Codec {
  static void fingerprint(std::uint64_t v, std::string& out) {
    out += std::to_string(v);
  }
  static void encode(std::uint64_t v, JsonValue& object, const char* key) {
    object.set(key, static_cast<std::int64_t>(v));
  }
  static std::uint64_t decode(const JsonValue& value, const char*) {
    return static_cast<std::uint64_t>(value.as_integer());
  }
  static void perturb(std::uint64_t& v) { ++v; }
};

struct DoubleCodec : SetCodec {
  static void fingerprint(double v, std::string& out) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);  // exact, locale-independent
    out += buf;
  }
  static double decode(const JsonValue& value, const char*) {
    return value.as_number();
  }
  static void perturb(double& v) { v = v == 0.5 ? 0.25 : 0.5; }
};

/// A double whose non-finite value means "unbounded" and stays off the
/// wire (JSON has no infinity).
struct BoundCodec : DoubleCodec {
  static void encode(double v, JsonValue& object, const char* key) {
    if (std::isfinite(v)) object.set(key, v);
  }
};

struct BoolCodec : SetCodec {
  static void fingerprint(bool v, std::string& out) { out += v ? '1' : '0'; }
  static bool decode(const JsonValue& value, const char*) {
    return value.as_bool();
  }
  static void perturb(bool& v) { v = !v; }
};

struct StringCodec : SetCodec {
  static void fingerprint(const std::string& v, std::string& out) {
    out += v;
  }
  static std::string decode(const JsonValue& value, const char*) {
    return value.as_string();
  }
  static void perturb(std::string& v) { v += '+'; }
};

template <const auto& Names>
struct EnumCodec {
  using Enum = typename std::remove_cvref_t<decltype(Names)>::value_type;
  static void fingerprint(Enum v, std::string& out) {
    out += Names.fingerprint_by_name ? std::string(Names.name(v))
                                     : std::to_string(static_cast<int>(v));
  }
  static void encode(Enum v, JsonValue& object, const char* key) {
    object.set(key, Names.name(v));
  }
  static Enum decode(const JsonValue& value, const char*) {
    return Names.parse(value.as_string());
  }
  static void perturb(Enum& v) {
    v = static_cast<Enum>((static_cast<std::size_t>(v) + 1) %
                          Names.names.size());
  }
};

template <typename Options, typename T>
Options owner_of(T Options::*);

/// The table entry of struct member `Member`, read and written by `Codec`.
template <auto Member, typename Codec>
constexpr auto field(const char* key, const char* fingerprint_key) {
  using Options = decltype(owner_of(Member));
  return OptionField<Options>{
      key, fingerprint_key,
      [](const Options& o, std::string& out) {
        Codec::fingerprint(o.*Member, out);
      },
      [](const Options& o, JsonValue& object, const char* k) {
        Codec::encode(o.*Member, object, k);
      },
      [](const JsonValue& value, const char* k, Options& o) {
        o.*Member = Codec::decode(value, k);
      },
      [](Options& o) { Codec::perturb(o.*Member); }};
}

using Variance = VarianceExperimentOptions;
using Training = TrainingExperimentOptions;

constexpr OptionField<Variance> kVarianceFields[] = {
    field<&Variance::qubit_counts, SizeListCodec>("qubit_counts", "qubits"),
    field<&Variance::circuits_per_point, SizeCodec>("circuits_per_point",
                                                    "circuits"),
    field<&Variance::layers, SizeCodec>("layers", "layers"),
    field<&Variance::cost, EnumCodec<kCostKindNames>>("cost", "cost"),
    field<&Variance::seed, U64Codec>("seed", "seed"),
    field<&Variance::entangle, BoolCodec>("entangle", "entangle"),
    field<&Variance::gradient_engine, StringCodec>("gradient_engine",
                                                   "engine"),
    field<&Variance::which_parameter, EnumCodec<kGradientParameterNames>>(
        "which_parameter", "param"),
    field<&Variance::entangler, EnumCodec<kEntanglerGateNames>>("entangler",
                                                                "entangler"),
    field<&Variance::topology, EnumCodec<kEntanglerTopologyNames>>(
        "topology", "topology"),
    // Selects what the result retains, not what is sampled.
    field<&Variance::keep_samples, BoolCodec>("keep_samples", nullptr),
};

constexpr OptionField<Training> kTrainingFields[] = {
    field<&Training::qubits, SizeCodec>("qubits", "qubits"),
    field<&Training::layers, SizeCodec>("layers", "layers"),
    field<&Training::iterations, SizeCodec>("iterations", "iterations"),
    field<&Training::learning_rate, DoubleCodec>("learning_rate", "lr"),
    field<&Training::optimizer, StringCodec>("optimizer", "optimizer"),
    field<&Training::gradient_engine, StringCodec>("gradient_engine",
                                                   "engine"),
    field<&Training::cost, EnumCodec<kCostKindNames>>("cost", "cost"),
    field<&Training::seed, U64Codec>("seed", "seed"),
    field<&Training::non_finite_policy, EnumCodec<kNonFinitePolicyNames>>(
        "non_finite_policy", "policy"),
    // Bounds wall-clock time; a run that meets it computes the same series.
    field<&Training::deadline_seconds, BoundCodec>("deadline_seconds",
                                                   nullptr),
};

}  // namespace

constinit const OptionsTable<Variance> kVarianceOptionsTable{
    "variance options", "variance/v1", kVarianceFields};
constinit const OptionsTable<Training> kTrainingOptionsTable{
    "training options", "training/v1", kTrainingFields};

template <typename Options>
std::string options_fingerprint(const OptionsTable<Options>& table,
                                const Options& options) {
  std::string fp = table.version;
  for (const OptionField<Options>& field : table.fields) {
    if (field.fingerprint_key == nullptr) continue;
    fp += ';';
    fp += field.fingerprint_key;
    fp += '=';
    field.fingerprint(options, fp);
  }
  return fp;
}

template <typename Options>
JsonValue options_to_json(const OptionsTable<Options>& table,
                          const Options& options) {
  JsonValue out = JsonValue::object();
  for (const OptionField<Options>& field : table.fields) {
    field.encode(options, out, field.key);
  }
  return out;
}

template <typename Options>
Options options_from_json(const OptionsTable<Options>& table,
                          const JsonValue& value) {
  // A typo'd option name fails the request instead of silently running
  // with the default.
  for (const std::string& key : value.keys()) {
    if (std::none_of(table.fields.begin(), table.fields.end(),
                     [&key](const OptionField<Options>& field) {
                       return key == field.key;
                     })) {
      throw InvalidArgument("request: unknown key '" + key + "' in " +
                            table.name);
    }
  }
  Options options;
  for (const OptionField<Options>& field : table.fields) {
    if (value.contains(field.key)) {
      field.decode(value.at(field.key), field.key, options);
    }
  }
  return options;
}

template std::string options_fingerprint(const OptionsTable<Variance>&,
                                         const Variance&);
template std::string options_fingerprint(const OptionsTable<Training>&,
                                         const Training&);
template JsonValue options_to_json(const OptionsTable<Variance>&,
                                   const Variance&);
template JsonValue options_to_json(const OptionsTable<Training>&,
                                   const Training&);
template Variance options_from_json(const OptionsTable<Variance>&,
                                    const JsonValue&);
template Training options_from_json(const OptionsTable<Training>&,
                                    const JsonValue&);

}  // namespace qbarren
