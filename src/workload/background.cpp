#include "workload/background.hpp"

#include <algorithm>

namespace robustore::workload {

BackgroundGenerator::BackgroundGenerator(sim::Engine& engine,
                                         disk::Disk& target,
                                         const BackgroundConfig& config,
                                         Rng rng)
    : engine_(&engine), target_(&target), config_(config), rng_(rng) {}

disk::StreamId BackgroundGenerator::stream() const {
  // High bit marks background streams; disambiguated per disk.
  return (disk::StreamId{1} << 63) | target_->id();
}

void BackgroundGenerator::start() {
  if (active_ || !config_.enabled()) return;
  active_ = true;
  scheduleNext();
}

bool BackgroundGenerator::prepareStart(sim::Engine::BatchEvent& out) {
  if (active_ || !config_.enabled()) return false;
  active_ = true;
  out.delay = rng_.exponential(config_.mean_interval);
  out.fn = [this] { emit(); };
  return true;
}

void BackgroundGenerator::stop() {
  active_ = false;
  if (pending_.valid()) {
    engine_->cancel(pending_);
    pending_ = {};
  }
}

void BackgroundGenerator::scheduleNext() {
  pending_ = engine_->schedule(rng_.exponential(config_.mean_interval),
                               [this] { emit(); });
}

void BackgroundGenerator::emit() {
  pending_ = {};
  if (!active_) return;
  const auto sectors = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(rng_.exponential(config_.mean_sectors)));

  const disk::Extent run{sectors * kSectorBytes, false};
  disk::DiskRequestSpec spec;
  spec.stream = stream();
  spec.priority = disk::Priority::kBackground;
  spec.extents = std::span(&run, 1);
  spec.media_rate = target_->mediaRate(rng_.uniform());
  spec.seek_scale = 0.0;  // locality-friendly: rotation + command only
  target_->submit(spec, nullptr);
  ++issued_;
  scheduleNext();
}

}  // namespace robustore::workload
