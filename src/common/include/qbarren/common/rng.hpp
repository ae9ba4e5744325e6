// Deterministic pseudo-random number generation.
//
// Every stochastic component in qbarren draws from an explicitly seeded
// `Rng`. Independent sub-streams (one per sampled circuit, per initializer
// call, ...) are derived with `Rng::child`, which hashes the parent seed and
// a stream index through splitmix64. This makes experiment results
// independent of evaluation order and trivially reproducible from a single
// 64-bit seed.
//
// The stream contract is in-tree: the engine (MT19937-64) and every sampler
// below but `beta` are implemented here, not taken from the standard
// library. They reproduce, bit for bit, what std::mt19937_64 and libstdc++
// 12's distributions drew before them (tests/fixtures/rng_golden.txt pins
// the first draws of each). `beta`'s gamma variates still come from
// std::gamma_distribution, fed by the in-tree engine, so they follow the
// library a build links. The integer samplers use GCC/Clang's
// `unsigned __int128`.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qbarren {

/// splitmix64 single step: maps any 64-bit value to a well-mixed 64-bit
/// value. Used both to expand user seeds and to derive child streams.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// The seed `Rng(parent_seed).child(stream_index)` is constructed from —
/// the child-stream derivation as a pure function. The static determinism
/// auditor (analysis/stream_graph.hpp) walks entire experiments' derivation
/// trees through this without instantiating a single generator; Rng::child
/// calls it, so the two can never drift.
[[nodiscard]] std::uint64_t derive_child_seed(std::uint64_t parent_seed,
                                              std::uint64_t stream_index)
    noexcept;

/// Seeded random source: an MT19937-64 engine, seeded as
/// std::mt19937_64(splitmix64(seed)), with the distributions used across
/// the library. Real draws start from canonical(): one engine word w, as
/// the double nearest w / 2^64, clamped to the largest double below 1.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Two Rng constructed from
  /// the same seed produce identical streams.
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child stream. Children with distinct indices
  /// (or from parents with distinct seeds) are statistically independent.
  [[nodiscard]] Rng child(std::uint64_t stream_index) const;

  /// The seed this generator was constructed from (pre-mixing).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform real on [lo, hi): one engine word, canonical() * (hi - lo) + lo.
  /// Requires lo < hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Standard normal draw, N(0, 1). Same as normal(0.0, 1.0).
  [[nodiscard]] double normal();

  /// Normal draw with the given mean and standard deviation (stddev >= 0),
  /// by the Marsaglia polar method. Each call keeps one variate of the
  /// accepted pair and discards the other. stddev == 0 returns `mean`
  /// without drawing.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Beta(alpha, beta) draw on (0, 1) via two gamma variates.
  /// Requires alpha > 0 and beta > 0.
  [[nodiscard]] double beta(double alpha, double beta);

  /// Uniform integer on [lo, hi] inclusive, by Lemire's multiply-shift
  /// rejection method. The full 64-bit range returns the raw engine word.
  /// Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform index on [0, n): uniform_int(0, n - 1). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Bernoulli draw: canonical() < p, one engine word even for p = 0 or 1.
  /// Requires p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// n standard normal draws that use both variates of each polar pair:
  /// element 2k is the pair's kept variate, element 2k + 1 the one
  /// normal() discards. So this is NOT n calls of normal(): it draws about
  /// half the engine words, and its values differ after the first.
  [[nodiscard]] std::vector<double> normal_vector(std::size_t n);

  /// n i.i.d. uniform draws on [lo, hi): n calls of uniform(lo, hi).
  [[nodiscard]] std::vector<double> uniform_vector(std::size_t n, double lo,
                                                   double hi);

 private:
  static constexpr std::size_t kStateWords = 312;
  struct Words;
  struct PolarPair {
    double kept;   // what normal() returns, before scaling
    double spare;  // the pair's other variate
  };

  [[nodiscard]] std::uint64_t next_word() noexcept;
  [[nodiscard]] double canonical() noexcept;
  [[nodiscard]] PolarPair polar() noexcept;
  void twist() noexcept;

  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, kStateWords> state_{};
  std::size_t next_ = kStateWords;  // index of the next untempered word
};

}  // namespace qbarren
