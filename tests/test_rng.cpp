#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace robustore {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 8.0);
    ASSERT_GE(u, 3.0);
    ASSERT_LT(u, 8.0);
  }
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysInBoundsAndHitsAllValues) {
  const std::uint64_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.below(n);
    ASSERT_LT(v, n);
    seen.insert(v);
  }
  if (n <= 16) {
    EXPECT_EQ(seen.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 100, 1024,
                                           1000000007ULL));

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(3);
  const auto p = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (const auto v : p) {
    ASSERT_LT(v, 257u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, PermutationIsShuffled) {
  Rng rng(4);
  const auto p = rng.permutation(1000);
  std::size_t fixed = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) fixed += (p[i] == i);
  EXPECT_LT(fixed, 20u);  // expected ~1 fixed point
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(42);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(77);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(8);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace robustore
