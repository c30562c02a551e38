#include "coding/tornado.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace robustore::coding {
namespace {

std::vector<std::uint8_t> randomData(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(Tornado, StructureMatchesCascadeMath) {
  Rng rng(1);
  TornadoParams params;
  params.beta = 0.5;
  const TornadoCode code(256, params, rng);
  EXPECT_EQ(code.k(), 256u);
  EXPECT_EQ(code.levelSize(0), 256u);
  EXPECT_EQ(code.levelSize(1), 128u);
  // Total check blocks ~ K*beta/(1-beta) = K, so rate ~ 1 - beta = 0.5.
  EXPECT_NEAR(code.rate(), 0.5, 0.08);
}

TEST(Tornado, FullReceptionRoundTrip) {
  Rng rng(2);
  const TornadoCode code(128, TornadoParams{}, rng);
  const Bytes block = 32;
  const auto data = randomData(128 * block, rng);
  const auto coded = code.encodeAll(data, block);
  const std::vector<bool> present(code.n(), true);
  EXPECT_TRUE(code.decodable(present));
  EXPECT_EQ(code.decode(present, coded, block), data);
}

TEST(Tornado, SystematicPrefix) {
  Rng rng(3);
  const TornadoCode code(64, TornadoParams{}, rng);
  const Bytes block = 16;
  const auto data = randomData(64 * block, rng);
  const auto coded = code.encodeAll(data, block);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), coded.begin()));
}

class TornadoErasureTest : public ::testing::TestWithParam<double> {};

TEST_P(TornadoErasureTest, RecoversFromRandomErasures) {
  const double loss = GetParam();
  Rng rng(static_cast<std::uint64_t>(loss * 1000));
  const std::uint32_t k = 256;
  const TornadoCode code(k, TornadoParams{}, rng);
  const Bytes block = 16;
  const auto data = randomData(k * block, rng);
  const auto coded = code.encodeAll(data, block);

  int successes = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> present(code.n());
    for (std::size_t i = 0; i < present.size(); ++i) {
      present[i] = !rng.bernoulli(loss);
    }
    if (!code.decodable(present)) continue;
    const auto decoded = code.decode(present, coded, block);
    ASSERT_EQ(decoded, data) << "decodable() true but decode mismatched";
    ++successes;
  }
  if (loss <= 0.10) {
    EXPECT_GE(successes, trials - 2);  // light loss: almost always fine
  }
  // Heavier loss: outcome may vary, but every claimed success must have
  // produced exact data (checked above).
}

INSTANTIATE_TEST_SUITE_P(LossRates, TornadoErasureTest,
                         ::testing::Values(0.02, 0.05, 0.10, 0.20, 0.30));

TEST(Tornado, MessageOnlyErasuresRecoverViaChecks) {
  Rng rng(5);
  const TornadoCode code(128, TornadoParams{}, rng);
  const Bytes block = 16;
  const auto data = randomData(128 * block, rng);
  const auto coded = code.encodeAll(data, block);
  std::vector<bool> present(code.n(), true);
  // Drop a handful of message blocks only.
  for (const std::uint32_t b : {3u, 40u, 77u, 100u}) present[b] = false;
  ASSERT_TRUE(code.decodable(present));
  EXPECT_EQ(code.decode(present, coded, block), data);
}

TEST(Tornado, CatastrophicLossIsRejected) {
  Rng rng(6);
  const TornadoCode code(128, TornadoParams{}, rng);
  // Nothing received at all.
  const std::vector<bool> nothing(code.n(), false);
  EXPECT_FALSE(code.decodable(nothing));
  // Deep-level wipeout defeats the RS tail.
  std::vector<bool> no_tail(code.n(), true);
  for (std::uint32_t i = code.k(); i < code.n(); ++i) no_tail[i] = true;
  // Drop over half of everything.
  Rng r2(7);
  std::vector<bool> heavy(code.n());
  for (std::size_t i = 0; i < heavy.size(); ++i) heavy[i] = r2.bernoulli(0.3);
  EXPECT_FALSE(code.decodable(heavy));
}

TEST(Tornado, DecodableIsConsistentWithDecode) {
  Rng rng(8);
  const TornadoCode code(64, TornadoParams{}, rng);
  const Bytes block = 8;
  const auto data = randomData(64 * block, rng);
  const auto coded = code.encodeAll(data, block);
  for (int t = 0; t < 30; ++t) {
    std::vector<bool> present(code.n());
    for (std::size_t i = 0; i < present.size(); ++i) {
      present[i] = rng.bernoulli(0.8);
    }
    const bool feasible = code.decodable(present);
    const auto decoded = code.decode(present, coded, block);
    EXPECT_EQ(feasible, !decoded.empty());
    if (feasible) {
      EXPECT_EQ(decoded, data);
    }
  }
}

}  // namespace
}  // namespace robustore::coding
