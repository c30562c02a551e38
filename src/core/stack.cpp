#include "core/stack.hpp"

#include <utility>

#include "common/expects.hpp"

namespace robustore::core {

Stack::Stack(const client::ClusterConfig& config, Rng cluster_rng)
    : cluster_(engine_, config, std::move(cluster_rng)) {}

void Stack::observe(bool trace, bool flight,
                    const trace::FlightRecorderConfig& flight_config) {
  if (!trace && !flight) return;
  recorder_.emplace(flight_config);
  tracer_.emplace(trace);
  tracer_->setSink(&*recorder_);
  cluster_.attachTracer(&*tracer_);
}

telemetry::PeriodicSampler& Stack::sample(SimTime dt,
                                          telemetry::Timeline& timeline) {
  sampler_.emplace(dt, timeline, tracer());
  engine_.setTimeObserver(
      [&s = *sampler_](SimTime now) { s.onTimeAdvance(now); });
  return *sampler_;
}

fault::FaultInjector& Stack::injectFaults(std::vector<std::uint32_t> roster) {
  roster_ = std::move(roster);
  injector_.emplace(engine_, [this](std::uint32_t i) -> disk::Disk& {
    return cluster_.disk(rosterDisk(i));
  });
  injector_->setTracer(tracer());
  return *injector_;
}

repair::RepairService& Stack::addRepair(const repair::RepairConfig& config) {
  return repair_.emplace(cluster_, config);
}

void Stack::repairOnChurn(std::function<void(std::uint32_t)> on_replacement) {
  ROBUSTORE_EXPECTS(injector_.has_value(), "churn wiring needs an injector");
  injector_->setChurnListener(
      [this, on_replacement = std::move(on_replacement)](
          const fault::ChurnEvent& ev) {
        const std::uint32_t global = rosterDisk(ev.disk);
        if (ev.kind == fault::ChurnEventKind::kPermanentFailure) {
          if (repair_) repair_->onDiskFailed(global);
          return;
        }
        if (on_replacement) on_replacement(ev.disk);
        if (repair_) repair_->onDiskReplaced(global);
      });
}

}  // namespace robustore::core
