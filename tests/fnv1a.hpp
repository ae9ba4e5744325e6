// FNV-1a (64-bit) digests for tests that pin large outputs by hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace qbarren::test_support {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void word(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      const auto byte = static_cast<unsigned char>(value >> (8 * b));
      bytes(&byte, 1);
    }
  }
  void text(const std::string& s) {
    word(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// `value` as 16 lower-case hex digits.
inline std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace qbarren::test_support
