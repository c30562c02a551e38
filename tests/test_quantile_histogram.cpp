// telemetry::QuantileHistogram: the bounded-error quantile sketch behind
// the per-stage latency percentiles and the registry's Prometheus
// summaries. Pins the half-bucket error bound at octave bottoms, the ≤1%
// error budget against exact SampleSet percentiles, the edge-case
// contract shared with SampleSet::percentile, and merge associativity
// (serial == any fan-out).

#include "telemetry/quantile_histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace robustore::telemetry {
namespace {

TEST(QuantileHistogram, EmptyAndSingleSample) {
  QuantileHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(50.0), 0.0);
  EXPECT_EQ(h.quantile(100.0), 0.0);

  h.record(3.25);
  EXPECT_EQ(h.count(), 1u);
  // A single sample is every quantile, exactly (min/max clamping).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(100.0), 3.25);
}

TEST(QuantileHistogram, EndpointsAreExactMinAndMax) {
  QuantileHistogram h;
  Rng rng(7);
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.001, 50.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    h.record(x);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), lo);  // clamped
  EXPECT_DOUBLE_EQ(h.quantile(100.0), hi);
  EXPECT_DOUBLE_EQ(h.quantile(250.0), hi);  // clamped
}

TEST(QuantileHistogram, NonPositiveAndNanLandInTheZeroBucket) {
  QuantileHistogram h;
  h.record(0.0);
  h.record(-1.5);
  h.record(std::nan(""));
  h.record(2.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.zeroCount(), 3u);
  // Ranks inside the zero bucket read 0.0; the top of the stream is 2.0.
  EXPECT_EQ(h.quantile(25.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(100.0), 2.0);
}

TEST(QuantileHistogram, HalfBucketBoundIsTightAtOctaveBottoms) {
  // A value at the bottom of an octave (mantissa exactly 0.5) is the
  // farthest, relatively, from its bucket's midpoint: the error is
  // exactly half a bucket, 1/(2 * kSubBuckets) of the value. A larger
  // sample keeps the max clamp out of the way.
  const double bound = 1.0 / (2.0 * QuantileHistogram::kSubBuckets);
  for (const int octave : {-20, -7, -1, 0, 1, 10, 30}) {
    const double x = std::ldexp(1.0, octave);
    QuantileHistogram h;
    for (int i = 0; i < 100; ++i) h.record(x);
    h.record(2.0 * x);
    const double got = h.quantile(50.0);
    EXPECT_LE(std::abs(got - x) / x, bound) << "2^" << octave;
    EXPECT_DOUBLE_EQ(got, x * (1.0 + bound)) << "2^" << octave;
  }
  // Worked example: 100 x 1.0 plus one 2.0 reads p50 as 1 + 1/256.
  QuantileHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1.0);
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 1.00390625);
}

TEST(QuantileHistogram, HalfBucketBoundHoldsAcrossTheOctave) {
  // Every value lands within 1/(2 * kSubBuckets) of its bucket midpoint,
  // wherever in the octave it sits.
  const double bound = 1.0 / (2.0 * QuantileHistogram::kSubBuckets);
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::exp(rng.uniform(std::log(1e-6), std::log(1e6)));
    QuantileHistogram h;
    h.record(0.0);
    h.record(x);
    h.record(x);
    h.record(4.0 * x);
    const double got = h.quantile(50.0);  // rank 1.5 -> the first x
    EXPECT_LE(std::abs(got - x) / x, bound) << x;
  }
}

TEST(QuantileHistogram, WithinOnePercentOfExactPercentiles) {
  // Dense continuous streams: adjacent order statistics are close, so
  // the bucket-midpoint estimate must land within the documented budget
  // of the exact linear-interpolated percentile.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    QuantileHistogram h;
    SampleSet exact;
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
      // Mix scales across several octaves: latencies from ~1 ms to ~20 s.
      const double x = std::exp(rng.uniform(std::log(1e-3), std::log(20.0)));
      h.record(x);
      exact.add(x);
    }
    for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
      const double want = exact.percentile(p);
      const double got = h.quantile(p);
      EXPECT_NEAR(got, want, 0.01 * want)
          << "seed " << seed << " p" << p;
    }
  }
}

TEST(QuantileHistogram, MergeIsExactAndAssociative) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.uniform(0.01, 9.0));

  QuantileHistogram serial;
  for (const double x : xs) serial.record(x);

  // Four shards merged in two different association orders.
  QuantileHistogram shard[4];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    shard[i % 4].record(xs[i]);
  }
  QuantileHistogram left;  // ((0+1)+2)+3
  left.merge(shard[0]);
  left.merge(shard[1]);
  left.merge(shard[2]);
  left.merge(shard[3]);
  QuantileHistogram right;  // (0+1) + (2+3)
  QuantileHistogram a;
  a.merge(shard[0]);
  a.merge(shard[1]);
  QuantileHistogram b;
  b.merge(shard[2]);
  b.merge(shard[3]);
  right.merge(a);
  right.merge(b);

  EXPECT_EQ(left.count(), serial.count());
  EXPECT_EQ(right.count(), serial.count());
  EXPECT_EQ(left.bucketCount(), serial.bucketCount());
  for (const double p : {0.0, 5.0, 50.0, 95.0, 99.5, 100.0}) {
    EXPECT_DOUBLE_EQ(left.quantile(p), serial.quantile(p)) << "p" << p;
    EXPECT_DOUBLE_EQ(right.quantile(p), serial.quantile(p)) << "p" << p;
  }
}

TEST(QuantileHistogram, ThreadShardedMergeEqualsSerial) {
  // The trial-pool shape: four workers record disjoint slices, the
  // reduction merges in index order; quantiles must be bitwise equal to
  // one thread doing everything.
  std::vector<double> xs;
  Rng rng(23);
  for (int i = 0; i < 8000; ++i) xs.push_back(rng.uniform(1e-4, 2.0));

  QuantileHistogram serial;
  for (const double x : xs) serial.record(x);

  QuantileHistogram shard[4];
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = static_cast<std::size_t>(w) * 2000;
           i < static_cast<std::size_t>(w + 1) * 2000; ++i) {
        shard[w].record(xs[i]);
      }
    });
  }
  for (auto& t : workers) t.join();
  QuantileHistogram merged;
  for (auto& s : shard) merged.merge(s);

  EXPECT_EQ(merged.count(), serial.count());
  for (const double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(p), serial.quantile(p)) << "p" << p;
  }
}

}  // namespace
}  // namespace robustore::telemetry
