// Reduces operation records to the benchmark's named metrics. The names
// and units here are the ones BENCHMARK.json declares.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "telemetry/host_profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
using MetricList = std::vector<Metric>;

/// Accesses attempted and failed over a run.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const std::vector<OpRecord>& ops);
};

[[nodiscard]] robustore::telemetry::HostProfile profileDelta(
    const robustore::telemetry::HostProfile& after,
    const robustore::telemetry::HostProfile& before);

/// The untraced run's metrics (BENCHMARK.json "end_to_end"). `setup_s`
/// is reported as given; the operations' host seconds are multiplied by
/// `to_reference` (SpeedProbe::toReference, 1 for host seconds).
[[nodiscard]] MetricList endToEndMetrics(const std::vector<OpRecord>& ops,
                                         const Workload& workload,
                                         double setup_s, double peak_rss_mb,
                                         const Totals& totals,
                                         double to_reference);

/// The traced run's metrics (BENCHMARK.json "per_layer"). `untraced` and
/// `traced` ran the same operations; deterministic counts come from the
/// first `check_ops` of them, host times from the traced pass, and the
/// process counts from the untraced pass, which nothing observed.
/// `seconds_per_fault` converts the traced pass's minor faults to time.
[[nodiscard]] MetricList perLayerMetrics(
    const std::vector<OpRecord>& untraced, const std::vector<OpRecord>& traced,
    std::uint32_t check_ops, const SpanRecorder& spans,
    const std::optional<CodecRates>& codec, double seconds_per_fault);

}  // namespace perfbench
