#include "qbarren/common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "qbarren/common/error.hpp"

namespace qbarren {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura 2000; std::mt19937_64).
constexpr std::size_t kShift = 156;  // m: the twist's far word
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
// The largest double below 1: libstdc++'s generate_canonical returns it
// when w / 2^64 rounds up to 1.
constexpr double kBelowOne = 0x1.fffffffffffffp-1;

__extension__ typedef unsigned __int128 U128;

// One twist step. The matrix is selected by a mask, not by a branch on the
// low bit, which is random and so mispredicts half the time.
std::uint64_t twisted(std::uint64_t hi, std::uint64_t lo,
                      std::uint64_t far) noexcept {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

std::uint64_t tempered(std::uint64_t z) noexcept {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

}  // namespace

// The stream as a UniformRandomBitGenerator, for std::gamma_distribution.
struct Rng::Words {
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return kU64Max; }
  result_type operator()() noexcept { return rng.next_word(); }
  Rng& rng;
};

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_child_seed(std::uint64_t parent_seed,
                                std::uint64_t stream_index) noexcept {
  // Mix the parent seed with the stream index through two splitmix rounds;
  // a single round would make child(0) of seed s collide with Rng(s).
  return splitmix64(splitmix64(parent_seed) ^ (stream_index + 1));
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  state_[0] = splitmix64(seed);
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

Rng Rng::child(std::uint64_t stream_index) const {
  return Rng(derive_child_seed(seed_, stream_index));
}

void Rng::twist() noexcept {
  constexpr std::size_t n = kStateWords;
  std::size_t k = 0;
  for (; k < n - kShift; ++k) {
    state_[k] = twisted(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = twisted(state_[k], state_[k + 1], state_[k + kShift - n]);
  }
  state_[n - 1] = twisted(state_[n - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

std::uint64_t Rng::next_word() noexcept {
  if (next_ == kStateWords) {
    twist();
  }
  return tempered(state_[next_++]);
}

// generate_canonical<double, 53> on one engine word w: the double nearest
// w / 2^64, clamped below 1. The 32-bit halves convert exactly and their
// sum rounds once, which is the direct conversion's result without its
// branch on the top bit.
double Rng::canonical() noexcept {
  const std::uint64_t w = next_word();
  const double c = (static_cast<double>(static_cast<std::uint32_t>(w >> 32)) *
                        0x1p32 +
                    static_cast<double>(static_cast<std::uint32_t>(w))) *
                   0x1p-64;
  return std::min(c, kBelowOne);
}

// Draws candidate pairs until one falls in the unit disc, as libstdc++'s
// normal_distribution does, and scales them in its operation order; `kept`
// is the variate it returns first.
Rng::PolarPair Rng::polar() noexcept {
  for (;;) {
    const double x = 2.0 * canonical() - 1.0;
    const double y = 2.0 * canonical() - 1.0;
    const double r2 = x * x + y * y;
    if (r2 <= 1.0 && r2 != 0.0) {
      const double factor = std::sqrt(-2 * std::log(r2) / r2);
      return {y * factor, x * factor};
    }
  }
}

double Rng::uniform(double lo, double hi) {
  QBARREN_REQUIRE(lo < hi, "uniform: lo must be < hi");
  return canonical() * (hi - lo) + lo;
}

double Rng::normal() { return normal(0.0, 1.0); }

double Rng::normal(double mean, double stddev) {
  QBARREN_REQUIRE(stddev >= 0.0, "normal: stddev must be non-negative");
  if (stddev == 0.0) {
    return mean;
  }
  return polar().kept * stddev + mean;
}

double Rng::beta(double alpha, double beta_param) {
  QBARREN_REQUIRE(alpha > 0.0 && beta_param > 0.0,
                  "beta: shape parameters must be positive");
  std::gamma_distribution<double> ga(alpha, 1.0);
  std::gamma_distribution<double> gb(beta_param, 1.0);
  Words words{*this};
  const double x = ga(words);
  const double y = gb(words);
  const double sum = x + y;
  // Both gamma variates can underflow to zero for tiny shapes; fall back to
  // the distribution mean rather than dividing 0/0.
  if (sum <= 0.0) {
    return alpha / (alpha + beta_param);
  }
  return x / sum;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  QBARREN_REQUIRE(lo <= hi, "uniform_int: lo must be <= hi");
  if (hi - lo == kU64Max) {
    return next_word();
  }
  // Lemire (2019), as libstdc++ 12's uniform_int_distribution::_S_nd: the
  // high word of w * range, rejecting the low words below 2^64 mod range.
  const std::uint64_t range = hi - lo + 1;
  U128 product = static_cast<U128>(next_word()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = static_cast<U128>(next_word()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64) + lo;
}

std::size_t Rng::index(std::size_t n) {
  QBARREN_REQUIRE(n > 0, "index: n must be positive");
  return static_cast<std::size_t>(uniform_int(0, n - 1));
}

bool Rng::bernoulli(double p) {
  QBARREN_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli: p must be in [0, 1]");
  return canonical() < p;
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  // Scaled by stddev 1 and shifted by mean 0, as libstdc++ does: that turns
  // a -0.0 into +0.0.
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; i += 2) {
    const PolarPair pair = polar();
    out[i] = pair.kept * 1.0 + 0.0;
    if (i + 1 < n) {
      out[i + 1] = pair.spare * 1.0 + 0.0;
    }
  }
  return out;
}

std::vector<double> Rng::uniform_vector(std::size_t n, double lo, double hi) {
  QBARREN_REQUIRE(lo < hi, "uniform_vector: lo must be < hi");
  std::vector<double> out(n);
  for (auto& v : out) {
    v = canonical() * (hi - lo) + lo;
  }
  return out;
}

}  // namespace qbarren
