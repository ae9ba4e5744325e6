// Unit tests for qbarren::Rng — determinism, stream independence, and
// distribution moments.
#include "qbarren/common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "qbarren/common/error.hpp"
#include "qbarren/common/stats.hpp"

namespace qbarren {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(Splitmix64, IsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  // Single-bit input flips should change many output bits.
  const std::uint64_t a = splitmix64(0x1);
  const std::uint64_t b = splitmix64(0x2);
  int differing_bits = 0;
  for (int i = 0; i < 64; ++i) {
    if (((a ^ b) >> i) & 1u) ++differing_bits;
  }
  EXPECT_GT(differing_bits, 16);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, ChildStreamsAreIndependentOfParentConsumption) {
  Rng parent1(7);
  (void)parent1.uniform(0.0, 1.0);  // consume some parent output
  Rng child_after = parent1.child(3);

  const Rng parent2(7);
  Rng child_fresh = parent2.child(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child_after.uniform(0.0, 1.0),
                     child_fresh.uniform(0.0, 1.0));
  }
}

TEST(Rng, ChildStreamsWithDistinctIndicesDiffer) {
  const Rng parent(7);
  Rng c0 = parent.child(0);
  Rng c1 = parent.child(1);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (c0.uniform(0.0, 1.0) != c1.uniform(0.0, 1.0)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, ChildZeroDiffersFromParentStream) {
  Rng parent(5);
  Rng child = Rng(5).child(0);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform(0.0, 1.0) != child.uniform(0.0, 1.0)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformRejectsEmptyInterval) {
  Rng rng(11);
  EXPECT_THROW((void)rng.uniform(1.0, 1.0), InvalidArgument);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Rng, UniformMomentsMatch) {
  Rng rng(13);
  const auto xs = rng.uniform_vector(20000, 0.0, 1.0);
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
  EXPECT_NEAR(sample_variance(xs), 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  const auto xs = rng.normal_vector(20000);
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(sample_variance(xs), 1.0, 0.05);
}

TEST(Rng, NormalWithParamsMatches) {
  Rng rng(19);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(2.0, 0.5);
  EXPECT_NEAR(mean(xs), 2.0, 0.02);
  EXPECT_NEAR(sample_stddev(xs), 0.5, 0.02);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(19);
  EXPECT_THROW((void)rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(Rng, BetaMomentsMatch) {
  Rng rng(23);
  const double alpha = 2.0;
  const double beta = 5.0;
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.beta(alpha, beta);
  const double expected_mean = alpha / (alpha + beta);
  const double expected_var = alpha * beta /
                              ((alpha + beta) * (alpha + beta) *
                               (alpha + beta + 1.0));
  EXPECT_NEAR(mean(xs), expected_mean, 0.01);
  EXPECT_NEAR(sample_variance(xs), expected_var, 0.005);
}

TEST(Rng, BetaStaysInUnitInterval) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.beta(0.5, 0.5);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, BetaRejectsNonPositiveShapes) {
  Rng rng(29);
  EXPECT_THROW((void)rng.beta(0.0, 1.0), InvalidArgument);
  EXPECT_THROW((void)rng.beta(1.0, -1.0), InvalidArgument);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(31);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(31);
  EXPECT_THROW((void)rng.uniform_int(5, 3), InvalidArgument);
}

TEST(Rng, IndexStaysInRangeAndCoversAll) {
  Rng rng(37);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::size_t v = rng.index(4);
    EXPECT_LT(v, 4u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(37);
  EXPECT_THROW((void)rng.index(0), InvalidArgument);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(41);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(41);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_THROW((void)rng.bernoulli(1.5), InvalidArgument);
  EXPECT_THROW((void)rng.bernoulli(-0.1), InvalidArgument);
}

TEST(Rng, VectorHelpersProduceRequestedSizes) {
  Rng rng(43);
  EXPECT_EQ(rng.normal_vector(17).size(), 17u);
  EXPECT_EQ(rng.uniform_vector(5, 0.0, 1.0).size(), 5u);
  EXPECT_TRUE(rng.normal_vector(0).empty());
}

// ---------------------------------------------------------------------------
// Golden vectors. fixtures/rng_golden.txt holds the first 64 draws of every
// sampler for four seeds, one line `<sampler> <seed> <64 hex words>` per
// pair. They were recorded from the Rng that wrapped std::mt19937_64 and
// libstdc++ 12's distributions, and pin the stream to it bit for bit:
// doubles compare through their bit patterns, so a last-ulp change fails.

constexpr std::size_t kGoldenDraws = 64;
constexpr std::uint64_t kGoldenSeeds[] = {0, 1, 42, (1ULL << 63) + 5};

using Draws = std::vector<std::uint64_t>;

template <typename T>
std::uint64_t word(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(value);
  } else {
    return static_cast<std::uint64_t>(value);
  }
}

struct GoldenSampler {
  std::string name;
  std::function<Draws(Rng&)> first_draws;
};

// A sampler drawn one value per call.
template <typename Draw>
GoldenSampler each(std::string name, Draw draw) {
  return {std::move(name), [draw](Rng& rng) {
            Draws out(kGoldenDraws);
            for (auto& w : out) w = word(draw(rng));
            return out;
          }};
}

// A sampler that returns all of its draws from one call.
GoldenSampler whole(std::string name,
                    std::function<std::vector<double>(Rng&)> draw) {
  return {std::move(name), [draw](Rng& rng) {
            Draws out;
            for (const double v : draw(rng)) out.push_back(word(v));
            return out;
          }};
}

const std::vector<GoldenSampler>& golden_samplers() {
  static const std::vector<GoldenSampler> samplers = {
      each("raw", [](Rng& r) { return r.uniform_int(0, kU64Max); }),
      each("uniform", [](Rng& r) { return r.uniform(-2.0, 3.0); }),
      whole("uniform_vector",
            [](Rng& r) {
              return r.uniform_vector(kGoldenDraws, -std::numbers::pi,
                                      std::numbers::pi);
            }),
      each("normal", [](Rng& r) { return r.normal(); }),
      each("normal_1.5_0.25", [](Rng& r) { return r.normal(1.5, 0.25); }),
      whole("normal_vector",
            [](Rng& r) { return r.normal_vector(kGoldenDraws); }),
      each("index_1", [](Rng& r) { return r.index(1); }),
      each("index_2", [](Rng& r) { return r.index(2); }),
      each("index_3", [](Rng& r) { return r.index(3); }),
      each("index_7", [](Rng& r) { return r.index(7); }),
      each("index_2^40+3", [](Rng& r) { return r.index((1ULL << 40) + 3); }),
      each("uniform_int_3_5", [](Rng& r) { return r.uniform_int(3, 5); }),
      each("uniform_int_1000_1000999",
           [](Rng& r) { return r.uniform_int(1000, 1000999); }),
      each("uniform_int_2^62_2^63+12345",
           [](Rng& r) {
             return r.uniform_int(1ULL << 62, (1ULL << 63) + 12345);
           }),
      each("uniform_int_5_max", [](Rng& r) { return r.uniform_int(5, kU64Max); }),
      each("bernoulli_0.3", [](Rng& r) { return r.bernoulli(0.3); }),
      each("beta_2_5", [](Rng& r) { return r.beta(2.0, 5.0); }),
      each("beta_0.5_0.5", [](Rng& r) { return r.beta(0.5, 0.5); }),
  };
  return samplers;
}

std::string golden_line(const std::string& name, std::uint64_t seed,
                        const Draws& draws) {
  std::ostringstream line;
  line << name << ' ' << seed << std::hex;
  for (const std::uint64_t w : draws) line << ' ' << w;
  return line.str();
}

std::map<std::pair<std::string, std::uint64_t>, Draws> load_golden() {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) + "/rng_golden.txt");
  EXPECT_TRUE(in) << "cannot open fixtures/rng_golden.txt";
  std::map<std::pair<std::string, std::uint64_t>, Draws> golden;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') continue;
    std::istringstream line(text);
    std::string name;
    std::uint64_t seed = 0;
    line >> name >> seed >> std::hex;
    Draws draws;
    for (std::uint64_t w = 0; line >> w;) draws.push_back(w);
    golden[{name, seed}] = draws;
  }
  return golden;
}

TEST(RngGolden, FirstDrawsMatchTheRecordedStream) {
  const auto golden = load_golden();
  EXPECT_EQ(golden.size(), golden_samplers().size() * std::size(kGoldenSeeds));
  for (const GoldenSampler& sampler : golden_samplers()) {
    for (const std::uint64_t seed : kGoldenSeeds) {
      Rng rng(seed);
      const Draws got = sampler.first_draws(rng);
      const auto it = golden.find({sampler.name, seed});
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden line; this build draws\n"
                      << golden_line(sampler.name, seed, got);
        continue;
      }
      ASSERT_EQ(got.size(), it->second.size()) << sampler.name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != it->second[i]) {
          ADD_FAILURE() << sampler.name << " seed " << seed << " draw " << i
                        << ": expected 0x" << std::hex << it->second[i]
                        << ", got 0x" << got[i];
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qbarren
