#pragma once

#include <cstdint>
#include <map>

namespace robustore::telemetry {

/// Bounded-relative-error quantile histogram (HDR-histogram style) over
/// non-negative values. Each positive value lands in a bucket keyed by
/// its binary exponent (frexp octave, mantissa in [0.5, 1)) and a
/// kSubBuckets-way linear subdivision of the mantissa. A bucket is
/// 2^octave / (2 * kSubBuckets) wide, so its midpoint is within half that
/// width of every value it holds: a relative error of at most
/// 1/(2 * kSubBuckets) = 1/256 (~0.39%), reached at the bottom of an
/// octave (1.0 reads back as 1.00390625) and shrinking to ~1/512 at its
/// top — inside the 1% error budget quantile() documents. Non-positive
/// and NaN values count in a dedicated zero bucket.
///
/// Designed for the trial pool: buckets are sparse integer-keyed counts,
/// so merge() is a bucket-wise add — exact, commutative, associative —
/// and the result is independent of merge order or thread count. Memory
/// is bounded by the number of distinct (octave, sub-bucket) pairs the
/// stream touches (≤ 128 per power of two of dynamic range), not by the
/// sample count, so per-access latency recording stays cheap across
/// million-access campaigns.
class QuantileHistogram {
 public:
  static constexpr std::uint32_t kSubBuckets = 128;

  void record(double value);

  /// Folds `other` in (exact bucket-count addition; min/max/sum/count
  /// combine exactly too, except `sum` which is a float accumulation and
  /// therefore associative only bucket-wise — quantiles never read it).
  void merge(const QuantileHistogram& other);

  /// Quantile estimate for p in [0, 100] (clamped). Uses the same rank
  /// convention as SampleSet::percentile (rank = p/100 * (count-1)), so
  /// the two agree to within the bucket error on identical streams.
  /// Edge contract: empty -> 0.0; p <= 0 -> exact min; p >= 100 -> exact
  /// max; otherwise the midpoint of the bucket holding the rank-th
  /// sample, clamped into [min, max]. Worst-case relative error vs the
  /// exact order statistic is half a bucket width, 1/(2*kSubBuckets)
  /// (~0.39%), at the bottom of an octave.
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] std::uint64_t zeroCount() const { return zero_count_; }
  [[nodiscard]] std::size_t bucketCount() const { return buckets_.size(); }

 private:
  [[nodiscard]] static std::int32_t bucketKey(double value);
  [[nodiscard]] static double bucketMid(std::int32_t key);

  /// (octave * kSubBuckets + sub) -> observation count. std::map keeps
  /// keys ordered, which is what makes quantile() a deterministic
  /// ascending walk.
  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace robustore::telemetry
