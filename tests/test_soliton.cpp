#include "coding/soliton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace robustore::coding {
namespace {

// gtest names each instance after a byte dump of its parameter, and
// gtest_discover_tests turns that dump into the ctest name. A 64-bit k
// leaves the struct without padding, so no uninitialised byte reaches
// the dump and the test names are the same on every build.
struct SolitonParams {
  std::uint64_t k;
  double c;
  double delta;
};
static_assert(sizeof(SolitonParams) ==
              sizeof(std::uint64_t) + 2 * sizeof(double));

class RobustSolitonTest : public ::testing::TestWithParam<SolitonParams> {};

TEST_P(RobustSolitonTest, PmfIsNormalized) {
  const auto [k64, c, delta] = GetParam();
  const auto k = static_cast<std::uint32_t>(k64);
  const RobustSoliton dist(k, c, delta);
  double total = 0;
  for (std::uint32_t d = 1; d <= k; ++d) {
    const double p = dist.pmf(d);
    ASSERT_GE(p, -1e-15);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(RobustSolitonTest, SamplesStayInRange) {
  const auto [k64, c, delta] = GetParam();
  const auto k = static_cast<std::uint32_t>(k64);
  const RobustSoliton dist(k, c, delta);
  Rng rng(k);
  for (int i = 0; i < 2000; ++i) {
    const auto d = dist.sample(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, k);
  }
}

TEST_P(RobustSolitonTest, EmpiricalMeanMatchesPmfMean) {
  const auto [k64, c, delta] = GetParam();
  const auto k = static_cast<std::uint32_t>(k64);
  const RobustSoliton dist(k, c, delta);
  Rng rng(k + 17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += dist.sample(rng);
  const double analytic = dist.meanDegree();
  EXPECT_NEAR(sum / n, analytic, 0.05 * analytic + 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Params, RobustSolitonTest,
    ::testing::Values(SolitonParams{128, 1.0, 0.5}, SolitonParams{128, 0.1, 0.5},
                      SolitonParams{512, 1.0, 0.1}, SolitonParams{1024, 1.0, 0.5},
                      SolitonParams{1024, 2.0, 0.01}, SolitonParams{16, 0.5, 0.5},
                      SolitonParams{1, 1.0, 0.5}));

TEST(RobustSoliton, PmfOutsideSupportIsZero) {
  const RobustSoliton dist(64, 1.0, 0.5);
  EXPECT_EQ(dist.pmf(0), 0.0);
  EXPECT_EQ(dist.pmf(65), 0.0);
}

TEST(RobustSoliton, DegreeOneMassScalesWithRippleParameter) {
  // Larger c (bigger R) adds low-degree mass (tau(1) = R/k).
  const RobustSoliton low_c(1024, 0.2, 0.5);
  const RobustSoliton high_c(1024, 2.0, 0.5);
  EXPECT_GT(high_c.pmf(1), low_c.pmf(1));
}

TEST(RobustSoliton, SmallDeltaLowersMeanDegree) {
  // Smaller delta raises R, moving the spike toward low degrees: per
  // §5.2.4, "small delta and large C cause less CPU overhead, but more
  // communication overhead" — i.e. a sparser decode at higher reception
  // cost.
  const RobustSoliton loose(1024, 1.0, 0.5);
  const RobustSoliton tight(1024, 1.0, 0.01);
  EXPECT_LT(tight.meanDegree(), loose.meanDegree());
}

TEST(RobustSoliton, MeanDegreeNearLogK) {
  // For the paper's parameters the mean degree sits in the "about five to
  // a dozen" range for K=1024 (§4.3.4 quotes ~5 for the coded-node mean).
  const RobustSoliton dist(1024, 1.0, 0.5);
  EXPECT_GT(dist.meanDegree(), 3.0);
  EXPECT_LT(dist.meanDegree(), 20.0);
}

TEST(IdealSoliton, PmfIsNormalized) {
  const IdealSoliton dist(256);
  double total = 0;
  for (std::uint32_t d = 1; d <= 256; ++d) total += dist.pmf(d);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(IdealSoliton, SampleDistributionMatchesPmf) {
  const IdealSoliton dist(64);
  Rng rng(5);
  std::vector<int> counts(65, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
  for (std::uint32_t d = 1; d <= 8; ++d) {
    const double expected = dist.pmf(d);
    const double actual = static_cast<double>(counts[d]) / n;
    EXPECT_NEAR(actual, expected, 0.15 * expected + 0.002) << "d=" << d;
  }
}

TEST(IdealSoliton, DegreeTwoDominates) {
  const IdealSoliton dist(1024);
  EXPECT_NEAR(dist.pmf(2), 0.5, 1e-12);
}

}  // namespace
}  // namespace robustore::coding
