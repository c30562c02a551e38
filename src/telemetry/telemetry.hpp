#pragma once

#include "telemetry/host_profiler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"

namespace robustore::telemetry {

/// One trial's sampling: the interval to sample at, and what sampling
/// produced — the raw time series plus the registry snapshot (final
/// gauges, per-series histograms) derived from them. Handed to
/// ExperimentRunner::runTrial by the callers that sample (the CLI's
/// `timeline` and `trace` subcommands); without one a trial samples
/// nothing.
struct TrialTelemetry {
  /// Sampling interval in simulated seconds (> 0).
  SimTime sample_dt = 10.0 * kMilliseconds;
  MetricRegistry registry;
  Timeline timeline;
};

}  // namespace robustore::telemetry
