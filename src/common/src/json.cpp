#include "qbarren/common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "qbarren/common/error.hpp"
#include "qbarren/common/run.hpp"

namespace qbarren {

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::integer(std::int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kInteger;
  v.integer_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::push_back(JsonValue element) {
  QBARREN_REQUIRE(kind_ == Kind::kArray,
                  "JsonValue::push_back: not an array");
  array_.push_back(std::move(element));
}

void JsonValue::set(const std::string& key, JsonValue value) {
  QBARREN_REQUIRE(kind_ == Kind::kObject, "JsonValue::set: not an object");
  object_[key] = std::move(value);
}

void JsonValue::set(const std::string& key, double value) {
  set(key, number(value));
}
void JsonValue::set(const std::string& key, std::int64_t value) {
  set(key, integer(value));
}
void JsonValue::set(const std::string& key, std::size_t value) {
  set(key, integer(static_cast<std::int64_t>(value)));
}
void JsonValue::set(const std::string& key, const std::string& value) {
  set(key, string(value));
}
void JsonValue::set(const std::string& key, const char* value) {
  set(key, string(value));
}
void JsonValue::set(const std::string& key, bool value) {
  set(key, boolean(value));
}

bool JsonValue::as_bool() const {
  QBARREN_REQUIRE(kind_ == Kind::kBool, "JsonValue::as_bool: not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ == Kind::kInteger) {
    return static_cast<double>(integer_);
  }
  QBARREN_REQUIRE(kind_ == Kind::kNumber,
                  "JsonValue::as_number: not a number");
  return number_;
}

std::int64_t JsonValue::as_integer() const {
  QBARREN_REQUIRE(kind_ == Kind::kInteger,
                  "JsonValue::as_integer: not an integer");
  return integer_;
}

const std::string& JsonValue::as_string() const {
  QBARREN_REQUIRE(kind_ == Kind::kString,
                  "JsonValue::as_string: not a string");
  return string_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  QBARREN_REQUIRE(kind_ == Kind::kObject,
                  "JsonValue::size: not an array or object");
  return object_.size();
}

const JsonValue& JsonValue::at(std::size_t index) const {
  QBARREN_REQUIRE(kind_ == Kind::kArray, "JsonValue::at: not an array");
  QBARREN_REQUIRE(index < array_.size(),
                  "JsonValue::at: array index out of range");
  return array_[index];
}

const JsonValue& JsonValue::at(const std::string& key) const {
  QBARREN_REQUIRE(kind_ == Kind::kObject, "JsonValue::at: not an object");
  const auto it = object_.find(key);
  if (it == object_.end()) {
    throw NotFound("JsonValue::at: no member named '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const noexcept {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

std::vector<std::string> JsonValue::keys() const {
  QBARREN_REQUIRE(kind_ == Kind::kObject, "JsonValue::keys: not an object");
  std::vector<std::string> out;
  out.reserve(object_.size());
  for (const auto& [key, value] : object_) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

JsonValue JsonValue::number_array(const std::vector<double>& values) {
  JsonValue arr = array();
  for (const double v : values) {
    arr.push_back(number(v));
  }
  return arr;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

// Longest %.17g rendering: sign, 17 digits, point, "e-308" (24 chars).
constexpr std::size_t kNumberChars = 32;

// printf's %.17g: std::to_chars with a precision is defined as printf
// with that precision. Result files, serve answers and cache keys are
// compared byte for byte, so this is not the shortest round-trip form
// (DESIGN §3).
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // RFC 8259 has no NaN/Inf
    return;
  }
  char buf[kNumberChars];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17).ptr;
  out.append(buf, end);
}

void append_integer(std::string& out, std::int64_t v) {
  char buf[kNumberChars];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) *
                 static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void JsonValue::dump_impl(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_number(out, number_);
      return;
    case Kind::kInteger:
      append_integer(out, integer_);
      return;
    case Kind::kString:
      escape_string(out, string_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_impl(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_string(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_impl(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

void write_json_file(const JsonValue& value, const std::string& path,
                     int indent) {
  // Atomic (temp + fsync + rename): a killed process never leaves a
  // truncated or corrupt results file behind.
  write_file_atomic(path, value.dump(indent) + '\n');
}

namespace {

/// Recursive-descent RFC 8259 parser over a byte range.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("parse_json: " + what + " at byte " +
                          std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.set(key, parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (peek() != '\\') fail("unpaired UTF-16 surrogate");
            ++pos_;
            if (peek() != 'u') fail("unpaired UTF-16 surrogate");
            ++pos_;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid UTF-16 low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  std::size_t skip_digits() {
    const std::size_t first = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - first;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and finite.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    const bool leading_zero = at('0');
    const std::size_t int_digits = skip_digits();
    bool valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
    bool is_integral = true;
    if (at('.')) {
      ++pos_;
      is_integral = false;
      valid = skip_digits() > 0 && valid;
    }
    if (at('e') || at('E')) {
      ++pos_;
      is_integral = false;
      if (at('+') || at('-')) ++pos_;
      valid = skip_digits() > 0 && valid;
    }
    if (!valid) {
      pos_ = start;
      fail("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (is_integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), nullptr, 10);
      if (errno == 0) {
        return JsonValue::integer(static_cast<std::int64_t>(v));
      }
      // out of int64 range: read it as a double
    }
    // No errno test: glibc sets ERANGE for subnormal results, which are
    // valid numbers.
    const double d = std::strtod(token.c_str(), nullptr);
    if (std::isinf(d)) {
      pos_ = start;
      fail("number out of range");
    }
    return JsonValue::number(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace qbarren
