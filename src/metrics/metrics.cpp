#include "metrics/metrics.hpp"

namespace robustore::metrics {

void AccessAggregate::merge(const AccessAggregate& other) {
  bandwidth_.merge(other.bandwidth_);
  latency_.merge(other.latency_);
  latency_samples_.merge(other.latency_samples_);
  io_overhead_.merge(other.io_overhead_);
  reception_.merge(other.reception_);
  cache_hits_.merge(other.cache_hits_);
  failures_survived_.merge(other.failures_survived_);
  reissued_requests_.merge(other.reissued_requests_);
  time_lost_.merge(other.time_lost_);
  incomplete_ += other.incomplete_;
  stages_ += other.stages_;
  for (std::size_t i = 0; i < trace::kNumStages; ++i) {
    stage_hist_[i].merge(other.stage_hist_[i]);
  }
  stage_hist_count_ += other.stage_hist_count_;
}

double AccessAggregate::meanStageSeconds(trace::Stage stage) const {
  const std::size_t n = latency_.count();
  return n == 0 ? 0.0 : stages_.stageSeconds(stage) / static_cast<double>(n);
}

void AccessAggregate::add(const AccessMetrics& m) {
  // The degraded-mode ledger accumulates over *all* accesses: a failed
  // access is exactly the kind these counters exist to explain (a
  // fail-fast RAID-0 access dies *because* of the failure it observed).
  // Restricting them to completed accesses — as the performance figures
  // below must be — silently biases the means toward survivors.
  failures_survived_.add(m.failures_survived);
  reissued_requests_.add(m.reissued_requests);
  time_lost_.add(m.time_lost_to_failures);
  if (!m.complete) {
    ++incomplete_;
    return;
  }
  bandwidth_.add(m.bandwidthMBps());
  latency_.add(m.latency);
  latency_samples_.add(m.latency);
  io_overhead_.add(m.ioOverhead());
  reception_.add(m.receptionOverhead());
  cache_hits_.add(m.cache_hits);
  stages_ += m.stages;
  if (!m.stages.empty()) {
    for (std::size_t i = 0; i < trace::kNumStages; ++i) {
      stage_hist_[i].record(m.stages.seconds[i]);
    }
    ++stage_hist_count_;
  }
}

}  // namespace robustore::metrics
