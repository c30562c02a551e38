#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "telemetry/timeline.hpp"
#include "trace/trace.hpp"

namespace robustore::telemetry {

/// Sim-time periodic sampler: evaluates registered probes at every
/// `dt`-grid point the simulation clock crosses and appends the values to
/// named Timeline series (and, when a tracer is attached, to Chrome
/// trace_event counter tracks so Perfetto renders the curves next to the
/// spans).
///
/// The sampler is driven by the engine's time observer, not by scheduled
/// events: it consumes zero engine events and zero rng draws, cannot
/// perturb event ordering or keep the engine from draining, and therefore
/// cannot change simulation results — the telemetry-off run is bitwise
/// identical. Probes must only *read* simulation state.
///
/// Gap compression: when one clock advance crosses many grid points (a
/// timeout drain jumping hours ahead), only the first and last pending
/// grid points are sampled. Nothing changes between event executions, so
/// the interior samples would repeat the first one anyway.
class PeriodicSampler {
 public:
  using Probe = std::function<double(SimTime)>;

  /// `tracer` (optional) additionally receives one counter record per
  /// probe per sample on `track`.
  PeriodicSampler(SimTime dt, Timeline& timeline,
                  trace::Tracer* tracer = nullptr,
                  std::uint32_t track = trace::kTelemetryTrack);

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Registers a probe; evaluated once per sample, in registration order.
  /// Probes receive the sample time (strictly increasing across calls) so
  /// rate-style probes can difference against their previous evaluation.
  void addProbe(std::string_view name, Probe probe);

  /// Engine time-observer hook: samples every pending grid point `<= now`
  /// (gap-compressed, see above).
  void onTimeAdvance(SimTime now);

  /// Explicit off-grid sample (trial start / final drained state). No-op
  /// unless `at` is past the last sampled time.
  void sampleNow(SimTime at);

  [[nodiscard]] SimTime dt() const { return dt_; }

 private:
  void sampleAt(SimTime at);

  struct Entry {
    Timeline::Series* series;
    const char* trace_name;  // interned in the tracer; null when untraced
    Probe probe;
  };

  SimTime dt_;
  Timeline* timeline_;
  trace::Tracer* tracer_;
  std::uint32_t track_;
  std::vector<Entry> entries_;
  SimTime next_ = 0.0;
  std::optional<SimTime> last_sampled_;
};

}  // namespace robustore::telemetry
