#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "telemetry/quantile_histogram.hpp"
#include "trace/trace.hpp"

namespace robustore::metrics {

/// Raw measurements of one access (read or write), §6.2.3.
struct AccessMetrics {
  SimTime latency = 0.0;
  /// Original (useful) data size.
  Bytes data_bytes = 0;
  /// Payload bytes that crossed the network, including blocks in flight at
  /// cancellation time.
  Bytes network_bytes = 0;
  /// Blocks accepted by the client before completion (coded blocks for
  /// RobuSTore, copies for replicated schemes, K for RAID-0).
  std::uint32_t blocks_received = 0;
  /// Original block count K.
  std::uint32_t blocks_original = 0;
  std::uint32_t cache_hits = 0;
  bool complete = false;
  /// Degraded-mode ledger: disk-failure notifications the access absorbed,
  /// block requests it re-issued, and simulated time its lost attempts
  /// cost before a retry or another disk covered for them.
  std::uint32_t failures_survived = 0;
  std::uint32_t reissued_requests = 0;
  SimTime time_lost_to_failures = 0.0;
  /// Per-stage latency decomposition of the access: all zero unless a
  /// flight recorder rides on the cluster's tracer (core::Stack::observe
  /// attaches one whenever tracing or flight recording is on).
  trace::StageBreakdown stages;

  /// Delivered bandwidth: original data size over access latency (MB/s).
  [[nodiscard]] double bandwidthMBps() const {
    return toMBps(data_bytes, latency);
  }
  /// (bytes over network - data size) / data size.
  [[nodiscard]] double ioOverhead() const {
    return data_bytes == 0
               ? 0.0
               : (static_cast<double>(network_bytes) -
                  static_cast<double>(data_bytes)) /
                     static_cast<double>(data_bytes);
  }
  /// blocks received / K - 1 (the erasure-code reception overhead, or the
  /// duplicate-copy overhead for replicated schemes).
  [[nodiscard]] double receptionOverhead() const {
    return blocks_original == 0
               ? 0.0
               : static_cast<double>(blocks_received) / blocks_original - 1.0;
  }
};

/// Aggregates a set of accesses into the three figures-of-merit every
/// experiment reports: mean bandwidth, the standard deviation of access
/// latency (the robustness metric), and mean I/O overhead.
class AccessAggregate {
 public:
  void add(const AccessMetrics& m);

  /// Folds another aggregate in (parallel reduction of per-worker
  /// partials): counts, incomplete counts, and the percentile sample set
  /// combine exactly; the running moments merge via Chan et al., which is
  /// numerically stable but not bitwise identical to one sequential add
  /// stream. Order-sensitive callers (the experiment runner) therefore
  /// reduce per-trial metrics with add() in trial order instead.
  void merge(const AccessAggregate& other);

  [[nodiscard]] std::size_t trials() const { return latency_.count(); }
  [[nodiscard]] double meanBandwidthMBps() const { return bandwidth_.mean(); }
  [[nodiscard]] double meanLatency() const { return latency_.mean(); }
  [[nodiscard]] double latencyStdDev() const { return latency_.stddev(); }
  [[nodiscard]] double meanIoOverhead() const { return io_overhead_.mean(); }
  [[nodiscard]] double meanReceptionOverhead() const {
    return reception_.mean();
  }
  /// Mean filer-cache hits per completed access (the §6.3.3 cache
  /// experiments' payoff figure).
  [[nodiscard]] double meanCacheHits() const { return cache_hits_.mean(); }
  [[nodiscard]] const RunningStats& bandwidth() const { return bandwidth_; }
  [[nodiscard]] const RunningStats& latency() const { return latency_; }
  [[nodiscard]] const RunningStats& ioOverhead() const { return io_overhead_; }
  [[nodiscard]] std::size_t incompleteCount() const { return incomplete_; }

  /// Degraded-mode figures over *all* accesses, completed or not: how
  /// much failure each access rode through (or died to), and what that
  /// cost. Failed accesses are included on purpose — they are the ones
  /// the ledger exists to explain.
  [[nodiscard]] double meanFailuresSurvived() const {
    return failures_survived_.mean();
  }
  [[nodiscard]] double meanReissuedRequests() const {
    return reissued_requests_.mean();
  }
  [[nodiscard]] double meanTimeLostToFailures() const {
    return time_lost_.mean();
  }

  /// Per-stage latency totals over the completed accesses (completed
  /// only, so the stage sums decompose the latency mean above).
  [[nodiscard]] const trace::StageBreakdown& stageTotals() const {
    return stages_;
  }
  /// Mean span time per completed access for one stage.
  [[nodiscard]] double meanStageSeconds(trace::Stage stage) const;

  /// Latency distribution view: percentile of per-access latency. The
  /// robustness story is really about the latency *tail*, which the
  /// standard deviation only summarises.
  [[nodiscard]] double latencyPercentile(double p) const {
    return latency_samples_.percentile(p);
  }

  /// Per-stage latency *distributions* (not just means): one quantile
  /// histogram per stage, populated only for completed accesses that
  /// carried a stage breakdown (i.e. traced or flight-recorded runs) —
  /// untraced aggregates keep them empty so report output is unchanged.
  [[nodiscard]] bool stageQuantilesRecorded() const {
    return stage_hist_count_ > 0;
  }
  [[nodiscard]] double stageQuantile(trace::Stage stage, double p) const {
    return stage_hist_[static_cast<std::size_t>(stage)].quantile(p);
  }

 private:
  RunningStats bandwidth_;
  RunningStats latency_;
  SampleSet latency_samples_;
  RunningStats io_overhead_;
  RunningStats reception_;
  RunningStats cache_hits_;
  RunningStats failures_survived_;
  RunningStats reissued_requests_;
  RunningStats time_lost_;
  trace::StageBreakdown stages_;
  telemetry::QuantileHistogram stage_hist_[trace::kNumStages];
  std::size_t stage_hist_count_ = 0;
  std::size_t incomplete_ = 0;
};

}  // namespace robustore::metrics
