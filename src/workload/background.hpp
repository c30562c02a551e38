#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "disk/disk.hpp"
#include "sim/engine.hpp"

namespace robustore::workload {

/// Competitive background workload on one disk (§6.2.4/§6.2.5): a stream
/// of mid-size (~50-sector) requests with random inter-arrival times whose
/// mean sets the degree of disk sharing. Interval 6 ms keeps the disk ~93%
/// busy; 200 ms barely touches it (Figure 6-5).
struct BackgroundConfig {
  /// Mean inter-arrival time; <= 0 disables the generator.
  SimTime mean_interval = 0.0;
  /// Mean request size in sectors (exponential, at least one sector).
  double mean_sectors = 50.0;

  [[nodiscard]] bool enabled() const { return mean_interval > 0; }
};

/// Generates background requests against a single disk while started.
/// Requests are submitted at background priority with locality-friendly
/// positioning (no full-stroke seek), which calibrates a 50-sector request
/// to ~5.5 ms of disk time as the paper's utilisation curve requires.
class BackgroundGenerator {
 public:
  BackgroundGenerator(sim::Engine& engine, disk::Disk& target,
                      const BackgroundConfig& config, Rng rng);

  BackgroundGenerator(const BackgroundGenerator&) = delete;
  BackgroundGenerator& operator=(const BackgroundGenerator&) = delete;

  /// Starts emitting requests (idempotent).
  void start();
  /// Batched variant of start() for whole-cluster waves: draws the first
  /// inter-arrival time and appends the arrival event to `out` instead of
  /// scheduling it. The caller submits the wave with Engine::scheduleBatch
  /// and hands the resulting handle back via adoptPending() so stop() can
  /// still cancel it. Returns false (and appends nothing) when already
  /// active or disabled. Equivalent to start() event for event.
  bool prepareStart(sim::Engine::BatchEvent& out);
  /// Completes prepareStart(): records the scheduled first-arrival id.
  void adoptPending(sim::EventId id) { pending_ = id; }
  /// Stops emitting; requests already queued at the disk still complete.
  void stop();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const BackgroundConfig& config() const { return config_; }

  /// Stream id used for this generator's requests.
  [[nodiscard]] disk::StreamId stream() const;

  [[nodiscard]] std::uint64_t requestsIssued() const { return issued_; }

 private:
  void scheduleNext();
  void emit();

  sim::Engine* engine_;
  disk::Disk* target_;
  BackgroundConfig config_;
  Rng rng_;
  bool active_ = false;
  sim::EventId pending_{};
  std::uint64_t issued_ = 0;
};

}  // namespace robustore::workload
