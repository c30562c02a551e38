#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "telemetry/quantile_histogram.hpp"

namespace robustore::telemetry {

/// Monotonic event counter. Cheap enough to stay enabled: increments are
/// one integer add, no locking (metrics are per-trial, like everything
/// else in a trial's simulation state).
class Counter {
 public:
  void increment(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, utilization...).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Central name -> metric registry. Names are dotted component paths
/// ("disk.queue_depth"); registration is get-or-create and the iteration
/// order is insertion order, so exports serialise deterministically — no
/// hash-order leaks into output bytes.
class MetricRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] QuantileHistogram& histogram(std::string_view name);

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Prometheus text exposition format (final snapshot for future live
  /// serving): one `robustore_`-prefixed family per metric, dots and
  /// other illegal characters mapped to '_'. Histograms emit a `summary`:
  /// fixed `{quantile="0.5"|"0.9"|"0.99"}` lines (QuantileHistogram
  /// estimates, within its half-bucket error) plus `_sum` / `_count`.
  [[nodiscard]] std::string prometheusText() const;

 private:
  template <typename T>
  struct Family {
    std::deque<std::pair<std::string, T>> entries;  // insertion order
    std::unordered_map<std::string_view, T*> index;
    [[nodiscard]] std::size_t size() const { return entries.size(); }
  };

  template <typename T>
  T& getOrCreate(Family<T>& family, std::string_view name);

  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<QuantileHistogram> histograms_;
};

}  // namespace robustore::telemetry
