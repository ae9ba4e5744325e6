// Minimal JSON document model: builder, serializer, and parser.
//
// Experiment results are exported as JSON for downstream plotting. This is
// a value-tree builder with a standards-compliant serializer (string
// escaping, non-finite numbers rendered as null per RFC 8259's exclusion)
// plus a recursive-descent parser (`parse_json`) used by round-trip tests,
// tools that consume qbarren's own output (e.g. `qbarren lint
// --format=json`) and serve, which parses untrusted NDJSON requests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qbarren {

class JsonValue {
 public:
  /// null by default.
  JsonValue() = default;

  [[nodiscard]] static JsonValue null();
  [[nodiscard]] static JsonValue boolean(bool value);
  [[nodiscard]] static JsonValue number(double value);
  [[nodiscard]] static JsonValue integer(std::int64_t value);
  [[nodiscard]] static JsonValue string(std::string value);
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  /// Array append; requires an array value.
  void push_back(JsonValue element);

  /// Object insert/overwrite; requires an object value.
  void set(const std::string& key, JsonValue value);

  /// Convenience typed setters (object values only).
  void set(const std::string& key, double value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, std::size_t value);
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const char* value);
  void set(const std::string& key, bool value);

  /// Builds a JSON array from a numeric vector.
  [[nodiscard]] static JsonValue number_array(
      const std::vector<double>& values);

  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  /// True for both floating-point and integer numbers.
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == Kind::kInteger;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  // --- read access (used by parse_json consumers) ---------------------------

  /// Boolean value; throws InvalidArgument on other kinds.
  [[nodiscard]] bool as_bool() const;

  /// Numeric value (integers widen to double); throws on other kinds.
  [[nodiscard]] double as_number() const;

  /// Integer value; throws on other kinds (including kNumber).
  [[nodiscard]] std::int64_t as_integer() const;

  /// String value; throws on other kinds.
  [[nodiscard]] const std::string& as_string() const;

  /// Element/member count; throws on non-container kinds.
  [[nodiscard]] std::size_t size() const;

  /// Array element access; throws on out-of-range or non-array.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

  /// Object member access; throws NotFound on a missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const noexcept;

  /// Sorted member keys of an object; throws on other kinds.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  /// Doubles render as printf's %.17g (enough digits to read back
  /// exactly), non-finite ones as null.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInteger, kString, kArray,
                    kObject };

  void dump_impl(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t integer_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  // std::map keeps key order deterministic — important for golden tests.
  std::map<std::string, JsonValue> object_;
};

/// Writes `value.dump(indent)` to a file; throws qbarren::Error on I/O
/// failure.
void write_json_file(const JsonValue& value, const std::string& path,
                     int indent = 2);

/// Parses an RFC 8259 JSON document (objects, arrays, strings with the
/// standard escapes including \uXXXX surrogate pairs, numbers, booleans,
/// null). Numbers follow RFC 8259's grammar (no '+' sign, leading zero,
/// or bare '.') and must be finite as a double. Numbers without a fraction
/// or exponent that fit std::int64_t parse as integers, everything else as
/// doubles, so a dumped double reads back bit for bit through as_number()
/// (except -0.0, which dumps as "-0" and reads back as the integer 0;
/// non-finite doubles were dumped as null and come back as null). Throws
/// InvalidArgument with a byte offset on malformed input, out-of-range
/// numbers or trailing garbage.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace qbarren
