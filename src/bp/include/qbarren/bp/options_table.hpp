// Options tables: the one description of each experiment's options.
//
// Every cell of the Fig 5a grid and every Fig 5b/5c series is filed under
// its options fingerprint (checkpoints, the serve result cache, `fsck`),
// and serve workers compute under options decoded from request JSON. One
// table per options struct lists its fields; the fingerprint, the JSON
// codec with its key allow-list, the enum names and the QD102/QD103 probes
// (analysis/stream_graph.hpp) are all generated from it, so they cannot
// drift apart.
//
// Fingerprint: "<version>;<key>=<value>;..." over the fields that have a
// fingerprint key, in table order. A field without one does not change
// what is computed (keep_samples, deadline_seconds), so checkpoints stay
// valid across it. Values print as decimal integers, comma-separated
// lists, %a hexfloat doubles, 1/0 bools and raw strings; enums print as
// their integer value, except CostKind, which prints its name.
//
// JSON: one member per field under its wire key, in table order. Seeds
// cross as int64, and a non-finite deadline is left out.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/common/json.hpp"

namespace qbarren {

/// The names of an enum's values, indexed by value.
template <typename Enum, std::size_t N>
struct EnumNames {
  using value_type = Enum;

  std::array<const char*, N> names;
  /// Start of the NotFound message for an unknown name.
  const char* unknown;
  /// Fingerprints print the name rather than the integer value.
  bool fingerprint_by_name = false;

  /// The value's name; "?" for a value outside the enumeration.
  [[nodiscard]] constexpr const char* name(Enum value) const {
    const auto i = static_cast<std::size_t>(value);
    return i < N ? names[i] : "?";
  }

  [[nodiscard]] constexpr std::optional<Enum> find(
      std::string_view name) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (name == names[i]) return static_cast<Enum>(i);
    }
    return std::nullopt;
  }

  /// As find; throws NotFound on an unknown name.
  [[nodiscard]] Enum parse(const std::string& name) const {
    if (const std::optional<Enum> value = find(name)) return *value;
    throw NotFound(std::string(unknown) + " '" + name + "'");
  }
};

inline constexpr EnumNames<CostKind, 3> kCostKindNames{
    {"global", "local", "zz"}, "cost_kind_from_name: unknown cost kind",
    true};
inline constexpr EnumNames<GradientParameter, 3> kGradientParameterNames{
    {"last", "middle", "first"}, "request: unknown which_parameter"};
inline constexpr EnumNames<EntanglerGate, 2> kEntanglerGateNames{
    {"cz", "cnot"}, "request: unknown entangler"};
inline constexpr EnumNames<EntanglerTopology, 3> kEntanglerTopologyNames{
    {"linear", "ring", "all-to-all"}, "request: unknown topology"};
inline constexpr EnumNames<NonFinitePolicy, 3> kNonFinitePolicyNames{
    {"throw", "abort", "fallback"}, "request: unknown non_finite_policy"};

/// One field of an options struct. The functions are generated from the
/// struct member and its value type's codec (options_table.cpp).
template <typename Options>
struct OptionField {
  const char* key;              ///< JSON key, and the field's name in findings
  const char* fingerprint_key;  ///< nullptr: not result-affecting
  /// Appends the value's fingerprint form to `out`.
  void (*fingerprint)(const Options& options, std::string& out);
  /// Sets the value as member `key` of `object`, or leaves it out.
  void (*encode)(const Options& options, JsonValue& object, const char* key);
  /// Reads the value of member `key`; throws on a malformed one.
  void (*decode)(const JsonValue& value, const char* key, Options& options);
  /// Changes the value to a different one (the QD102/QD103 probes).
  void (*perturb)(Options& options);
};

template <typename Options>
struct OptionsTable {
  const char* name;     ///< "variance options", as decode errors name it
  const char* version;  ///< the fingerprint's leading tag
  std::span<const OptionField<Options>> fields;
};

extern const OptionsTable<VarianceExperimentOptions> kVarianceOptionsTable;
extern const OptionsTable<TrainingExperimentOptions> kTrainingOptionsTable;

/// The fingerprint of `options` under `table`.
template <typename Options>
[[nodiscard]] std::string options_fingerprint(
    const OptionsTable<Options>& table, const Options& options);

/// `options` as a JSON object (serve requests and worker jobs).
template <typename Options>
[[nodiscard]] JsonValue options_to_json(const OptionsTable<Options>& table,
                                        const Options& options);

/// Inverse of options_to_json; absent members keep their defaults. Throws
/// InvalidArgument on an unknown key, a negative size or a qubit count
/// below 1, and NotFound on an unknown enum name.
template <typename Options>
[[nodiscard]] Options options_from_json(const OptionsTable<Options>& table,
                                        const JsonValue& value);

}  // namespace qbarren
