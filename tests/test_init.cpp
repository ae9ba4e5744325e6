// Tests for the initialization strategies: sizes, determinism, bounds, and
// — via TEST_P sweeps — the variance formulas of §III.
#include "qbarren/init/initializers.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/stats.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

Circuit make_ansatz(std::size_t qubits, std::size_t layers) {
  TrainingAnsatzOptions options;
  options.layers = layers;
  return training_ansatz(qubits, options);
}

// Pools draws over many seeds so moment checks have tight tolerances.
std::vector<double> pooled_draws(const Initializer& init,
                                 const Circuit& circuit, int repetitions) {
  std::vector<double> all;
  for (int rep = 0; rep < repetitions; ++rep) {
    Rng rng(static_cast<std::uint64_t>(rep) + 1000);
    const auto params = init.initialize(circuit, rng);
    all.insert(all.end(), params.begin(), params.end());
  }
  return all;
}

TEST(Initializers, ProduceCorrectSize) {
  const Circuit circuit = make_ansatz(4, 3);
  for (const auto& name : initializer_names()) {
    const auto init = make_initializer(name);
    Rng rng(1);
    EXPECT_EQ(init->initialize(circuit, rng).size(),
              circuit.num_parameters())
        << name;
  }
}

TEST(Initializers, DeterministicGivenSeed) {
  const Circuit circuit = make_ansatz(3, 2);
  for (const auto& name : initializer_names()) {
    const auto init = make_initializer(name);
    Rng a(77);
    Rng b(77);
    EXPECT_EQ(init->initialize(circuit, a), init->initialize(circuit, b))
        << name;
  }
}

TEST(RandomInit, UniformOnZeroTwoPi) {
  const Circuit circuit = make_ansatz(4, 10);
  const RandomInitializer init;
  const auto draws = pooled_draws(init, circuit, 50);
  double lo = 1e9;
  double hi = -1e9;
  for (double v : draws) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 2.0 * M_PI);
  EXPECT_NEAR(mean(draws), M_PI, 0.05);
  EXPECT_NEAR(sample_variance(draws), 4.0 * M_PI * M_PI / 12.0, 0.1);
}

TEST(RandomInit, CustomRangeValidated) {
  EXPECT_THROW(RandomInitializer(1.0, 1.0), InvalidArgument);
  const RandomInitializer init(-0.5, 0.5);
  const Circuit circuit = make_ansatz(2, 1);
  Rng rng(1);
  for (double v : init.initialize(circuit, rng)) {
    EXPECT_GE(v, -0.5);
    EXPECT_LT(v, 0.5);
  }
}

TEST(XavierUniform, BoundsMatchFormula) {
  const Circuit circuit = make_ansatz(5, 4);  // fan_in = 10, fan_out = 4
  const XavierUniformInitializer init;
  const double limit = std::sqrt(6.0 / (10.0 + 4.0));
  const auto draws = pooled_draws(init, circuit, 50);
  for (double v : draws) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  // Uniform(-l, l) variance = l^2 / 3.
  EXPECT_NEAR(sample_variance(draws), limit * limit / 3.0,
              0.05 * limit * limit);
}

TEST(LeCunUniform, BoundsMatchFormula) {
  const Circuit circuit = make_ansatz(4, 2);  // fan_in = 8
  const LeCunUniformInitializer init;
  const double limit = 1.0 / std::sqrt(8.0);
  const auto draws = pooled_draws(init, circuit, 50);
  for (double v : draws) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(HeUniform, BoundsMatchFormula) {
  const Circuit circuit = make_ansatz(4, 2);  // fan_in = 8
  const HeUniformInitializer init;
  const double limit = std::sqrt(6.0 / 8.0);
  const auto draws = pooled_draws(init, circuit, 30);
  for (double v : draws) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(Orthogonal, LayerRowsAreOrthonormal) {
  // Per-layer-square mode: consecutive groups of fan_in rows form an
  // orthogonal matrix, so every layer-row has unit norm and distinct rows
  // within a block are orthogonal.
  const Circuit circuit = make_ansatz(3, 6);  // fan_in = 6, layers = 6
  const OrthogonalInitializer init;
  Rng rng(5);
  const auto params = init.initialize(circuit, rng);
  ASSERT_EQ(params.size(), 36u);
  RealMatrix block(6, 6);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      block(r, c) = params[r * 6 + c];
    }
  }
  EXPECT_TRUE(has_orthonormal_columns(block, 1e-9));
  EXPECT_TRUE(has_orthonormal_columns(block.transpose(), 1e-9));
}

TEST(Orthogonal, FullTensorColumnsOrthonormal) {
  const Circuit circuit = make_ansatz(2, 8);  // tensor 8 x 4
  const OrthogonalInitializer init(FanMode::kLayerTensor, 1.0,
                                   OrthogonalBlockMode::kFullTensor);
  Rng rng(6);
  const auto params = init.initialize(circuit, rng);
  ASSERT_EQ(params.size(), 32u);
  RealMatrix m(8, 4);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m(r, c) = params[r * 4 + c];
    }
  }
  EXPECT_TRUE(has_orthonormal_columns(m, 1e-9));
}

TEST(Orthogonal, GainScalesEntries) {
  const Circuit circuit = make_ansatz(2, 2);
  const OrthogonalInitializer unit(FanMode::kLayerTensor, 1.0);
  const OrthogonalInitializer doubled(FanMode::kLayerTensor, 2.0);
  Rng a(3);
  Rng b(3);
  const auto pa = unit.initialize(circuit, a);
  const auto pb = doubled.initialize(circuit, b);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pb[i], 2.0 * pa[i], 1e-12);
  }
}

TEST(Beta, StaysInScaledRange) {
  const Circuit circuit = make_ansatz(3, 3);
  const BetaInitializer init(2.0, 2.0, M_PI);
  const auto draws = pooled_draws(init, circuit, 30);
  for (double v : draws) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, M_PI);
  }
  // Beta(2,2) mean = 0.5 -> scaled mean = pi/2.
  EXPECT_NEAR(mean(draws), M_PI / 2.0, 0.05);
}

TEST(Beta, ValidatesParameters) {
  EXPECT_THROW(BetaInitializer(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(BetaInitializer(1.0, 1.0, -1.0), InvalidArgument);
}

TEST(Zeros, AllZero) {
  const Circuit circuit = make_ansatz(3, 2);
  const ZerosInitializer init;
  Rng rng(1);
  for (double v : init.initialize(circuit, rng)) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(SmallNormal, SigmaControlsSpread) {
  const Circuit circuit = make_ansatz(4, 10);
  const SmallNormalInitializer init(0.05);
  const auto draws = pooled_draws(init, circuit, 50);
  EXPECT_NEAR(mean(draws), 0.0, 0.01);
  EXPECT_NEAR(sample_stddev(draws), 0.05, 0.005);
  EXPECT_THROW(SmallNormalInitializer(-0.1), InvalidArgument);
}

TEST(FanComputation, LayerTensorUsesRecordedShape) {
  const Circuit circuit = make_ansatz(5, 7);
  const FanPair fans = compute_fans(circuit, FanMode::kLayerTensor);
  EXPECT_EQ(fans.fan_in, 10u);  // 2 * qubits
  EXPECT_EQ(fans.fan_out, 7u);
}

TEST(FanComputation, FallsBackToSingleLayer) {
  Circuit c(3);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_rotation(gates::Axis::kY, 1);
  const FanPair fans = compute_fans(c, FanMode::kLayerTensor);
  EXPECT_EQ(fans.fan_in, 2u);
  EXPECT_EQ(fans.fan_out, 1u);
}

TEST(FanComputation, QubitSquare) {
  const Circuit circuit = make_ansatz(5, 7);
  const FanPair fans = compute_fans(circuit, FanMode::kQubitSquare);
  EXPECT_EQ(fans.fan_in, 5u);
  EXPECT_EQ(fans.fan_out, 5u);
}

TEST(FanComputation, ModeNames) {
  EXPECT_EQ(fan_mode_name(FanMode::kLayerTensor), "layer-tensor");
  EXPECT_EQ(fan_mode_name(FanMode::kQubitSquare), "qubit-square");
}

TEST(Registry, KnownNamesConstruct) {
  for (const auto& name : initializer_names()) {
    const auto init = make_initializer(name);
    ASSERT_NE(init, nullptr);
    EXPECT_EQ(init->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_initializer("glorot"), NotFound);
}

TEST(Registry, PaperSetMatchesPaperOrder) {
  const auto set = paper_initializers();
  ASSERT_EQ(set.size(), 6u);
  EXPECT_EQ(set[0]->name(), "random");
  EXPECT_EQ(set[1]->name(), "xavier-normal");
  EXPECT_EQ(set[2]->name(), "xavier-uniform");
  EXPECT_EQ(set[3]->name(), "he");
  EXPECT_EQ(set[4]->name(), "lecun");
  EXPECT_EQ(set[5]->name(), "orthogonal");
}

// Property sweep: sampled variances match the §III closed forms for every
// (qubits, layers) shape.
struct VarianceCase {
  std::string initializer;
  std::size_t qubits;
  std::size_t layers;
};

class InitVarianceFormula : public ::testing::TestWithParam<VarianceCase> {};

TEST_P(InitVarianceFormula, SampleVarianceMatchesClosedForm) {
  const VarianceCase& vc = GetParam();
  const Circuit circuit = make_ansatz(vc.qubits, vc.layers);
  const double fan_in = 2.0 * static_cast<double>(vc.qubits);
  const double fan_out = static_cast<double>(vc.layers);

  double expected = 0.0;
  if (vc.initializer == "xavier-normal" ||
      vc.initializer == "xavier-uniform") {
    expected = 2.0 / (fan_in + fan_out);
  } else if (vc.initializer == "he" || vc.initializer == "he-uniform") {
    expected = 2.0 / fan_in;
  } else if (vc.initializer == "lecun") {
    expected = 1.0 / fan_in;
  } else if (vc.initializer == "lecun-uniform") {
    // The paper's uniform LeCun variant is U(-1/sqrt(n_in), 1/sqrt(n_in)),
    // whose variance is limit^2 / 3 — it does not variance-match the
    // normal variant.
    expected = 1.0 / (3.0 * fan_in);
  } else if (vc.initializer == "orthogonal") {
    expected = 1.0 / fan_in;  // Haar orthogonal entries: variance 1/dim
  } else {
    FAIL() << "unhandled case " << vc.initializer;
  }

  const auto init = make_initializer(vc.initializer);
  const auto draws = pooled_draws(*init, circuit, 200);
  EXPECT_NEAR(mean(draws), 0.0, 0.3 * std::sqrt(expected))
      << vc.initializer;
  EXPECT_NEAR(sample_variance(draws), expected, 0.12 * expected)
      << vc.initializer << " at q=" << vc.qubits << " L=" << vc.layers;
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, InitVarianceFormula,
    ::testing::Values(VarianceCase{"xavier-normal", 4, 8},
                      VarianceCase{"xavier-normal", 10, 5},
                      VarianceCase{"xavier-uniform", 4, 8},
                      VarianceCase{"xavier-uniform", 6, 20},
                      VarianceCase{"he", 4, 8}, VarianceCase{"he", 8, 3},
                      VarianceCase{"he-uniform", 4, 8},
                      VarianceCase{"lecun", 4, 8},
                      VarianceCase{"lecun", 10, 5},
                      VarianceCase{"lecun-uniform", 4, 8},
                      VarianceCase{"orthogonal", 4, 8},
                      VarianceCase{"orthogonal", 5, 10}),
    [](const ::testing::TestParamInfo<VarianceCase>& info) {
      std::string name = info.param.initializer + "_q" +
                         std::to_string(info.param.qubits) + "_L" +
                         std::to_string(info.param.layers);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Pins every registry initializer's output, bit for bit, on fixed Eq 2
// circuits at q = 2..10: one FNV-1a digest per initializer over the bit
// patterns of all its angles. Recorded from the build whose Rng wrapped
// libstdc++'s distributions, so a sampler that drifts by one ulp, or
// consumes one engine word more or less, fails here.
std::uint64_t initialize_digest(const std::string& name) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t w) {
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((w >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  const auto init = make_initializer(name);
  for (std::size_t q = 2; q <= 10; ++q) {
    Rng structure_rng(100 + q);
    VarianceAnsatzOptions options;
    options.layers = 12;
    const Circuit circuit = variance_ansatz(q, structure_rng, options);
    Rng rng(7000 + q);
    const auto params = init->initialize(circuit, rng);
    mix(params.size());
    for (const double v : params) mix(std::bit_cast<std::uint64_t>(v));
  }
  return digest;
}

TEST(Initializers, OutputIsPinnedBitForBit) {
  const std::map<std::string, std::uint64_t> expected = {
      {"random", 0x9825d9f190625257ULL},
      {"xavier-normal", 0xc87672d698be0198ULL},
      {"xavier-uniform", 0xcd0b02681694951eULL},
      {"he", 0x5ec5eae5c4c6f1aeULL},
      {"he-uniform", 0xc1bb06d310eb1fb7ULL},
      {"lecun", 0x6c6fb97b97fbcf6bULL},
      {"lecun-uniform", 0x184b4cd3b0d78d36ULL},
      {"orthogonal", 0xbb293e2f4739275bULL},
      {"orthogonal-full", 0x6de8e86147d80373ULL},
      {"beta", 0x90aad40449e3ff59ULL},
      {"zeros", 0x682e9462ae15a2ddULL},
      {"small-normal", 0xa928681ec1de5041ULL},
  };
  for (const auto& name : initializer_names()) {
    const auto it = expected.find(name);
    const std::uint64_t got = initialize_digest(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no pinned digest: {\"" << name << "\", 0x" << std::hex
                    << got << "ULL},";
      continue;
    }
    EXPECT_EQ(got, it->second) << name << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace qbarren
