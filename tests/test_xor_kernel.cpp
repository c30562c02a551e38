#include "coding/xor_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace robustore::coding {
namespace {

std::vector<std::uint8_t> randomBytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

class XorSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XorSizeTest, MatchesNaiveXor) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  auto dst = randomBytes(n, rng);
  const auto src = randomBytes(n, rng);
  auto expected = dst;
  for (std::size_t i = 0; i < n; ++i) expected[i] ^= src[i];
  xorInto(dst, src);
  EXPECT_EQ(dst, expected);
}

TEST_P(XorSizeTest, XorInto2MatchesTwoPasses) {
  const std::size_t n = GetParam();
  Rng rng(n + 7);
  auto dst = randomBytes(n, rng);
  const auto a = randomBytes(n, rng);
  const auto b = randomBytes(n, rng);
  auto expected = dst;
  xorInto(expected, a);
  xorInto(expected, b);
  xorInto2(dst, a, b);
  EXPECT_EQ(dst, expected);
}

TEST_P(XorSizeTest, DoubleXorIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n + 13);
  auto dst = randomBytes(n, rng);
  const auto original = dst;
  const auto src = randomBytes(n, rng);
  xorInto(dst, src);
  if (n > 0) {
    EXPECT_NE(dst, original);
  }
  xorInto(dst, src);
  EXPECT_EQ(dst, original);
}

// Sizes straddle every code path: empty, sub-lane, unaligned tails, the
// 32-byte unroll boundary (and its multiples), and large buffers.
INSTANTIATE_TEST_SUITE_P(Sizes, XorSizeTest,
                         ::testing::Values(0, 1, 3, 7, 8, 9, 15, 16, 31, 32,
                                           33, 63, 64, 65, 95, 96, 97, 127,
                                           128, 129, 255, 1024, 4097, 65536,
                                           1048576));

TEST(XorKernel, SelfXorZeroes) {
  Rng rng(3);
  auto buf = randomBytes(1000, rng);
  xorInto(buf, buf);
  for (const auto b : buf) EXPECT_EQ(b, 0);
}

TEST(XorKernel, XorInto2WithEqualSourcesIsIdentity) {
  // a ^ a cancels, so the destination must come back untouched — true in
  // the unrolled, single-lane, and byte-tail paths alike.
  Rng rng(5);
  auto buf = randomBytes(1000, rng);
  const auto original = buf;
  const auto src = randomBytes(1000, rng);
  xorInto2(buf, src, src);
  EXPECT_EQ(buf, original);
}

}  // namespace
}  // namespace robustore::coding
