#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "client/cluster.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "repair/repair.hpp"
#include "sim/engine.hpp"
#include "telemetry/sampler.hpp"
#include "trace/flight_recorder.hpp"

namespace robustore::core {

/// Seed salts, XORed into a driver's base seed to derive one independent
/// stream each. The values are historical: changing one changes every
/// artifact of its drivers. DESIGN.md §"Seeds" lists every derivation.
namespace salt {
inline constexpr std::uint64_t kCluster = 0xc1;  // ExperimentRunner, chaos
inline constexpr std::uint64_t kMultiClientCluster = 0x5eed;
inline constexpr std::uint64_t kStaticBackground = 0xb6;
inline constexpr std::uint64_t kFaultModel = 0xFA17FA17;  // per trial
inline constexpr std::uint64_t kChurn = 0xC4024E11;       // per trial
inline constexpr std::uint64_t kChaosData = 0xDA7A11A5;
}  // namespace salt

/// The simulated testbed under every driver: one engine, one cluster, and
/// the optional parts several drivers assemble alike — tracer and flight
/// recorder, telemetry sampler, a fault injector over a disk roster, a
/// repair service fed by churn. ExperimentRunner, MultiClientExperiment,
/// chaos::runCampaign and the durability sweep keep only their workloads.
///
/// Members are declared in dependency order, so each is destroyed before
/// what it points into; pinned because members and driver callbacks hold
/// pointers to it. The stack schedules no event and draws no number
/// itself: each happens in a driver call, in the driver's order, which
/// keeps every driver's output bit-identical.
class Stack {
 public:
  Stack(const client::ClusterConfig& config, Rng cluster_rng);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] client::Cluster& cluster() { return cluster_; }

  /// Attaches a tracer that records only when `trace` is set, carrying a
  /// flight recorder as its sink whenever either flag is — the recorder
  /// is where Scheme::collect reads per-access stage sums. No-op when
  /// both are off.
  void observe(bool trace, bool flight,
               const trace::FlightRecorderConfig& flight_config = {});
  [[nodiscard]] trace::Tracer* tracer() {
    return tracer_ ? &*tracer_ : nullptr;
  }
  [[nodiscard]] trace::FlightRecorder* recorder() {
    return recorder_ ? &*recorder_ : nullptr;
  }

  /// Samples telemetry every `dt` into `timeline` (and the tracer, when
  /// attached). Claims the engine's one time-observer slot; the caller
  /// registers probes and takes the explicit samples.
  telemetry::PeriodicSampler& sample(SimTime dt, telemetry::Timeline& timeline);

  /// Fault injector whose disk i is roster[i % size]; an empty roster
  /// addresses every cluster disk by global index. Traced when observed.
  fault::FaultInjector& injectFaults(std::vector<std::uint32_t> roster = {});
  [[nodiscard]] fault::FaultInjector* injector() {
    return injector_ ? &*injector_ : nullptr;
  }
  /// Global index of the injector's disk `i`.
  [[nodiscard]] std::uint32_t rosterDisk(std::uint32_t i) const {
    return roster_.empty()
               ? i
               : roster_[i % static_cast<std::uint32_t>(roster_.size())];
  }

  /// Background repair over the cluster (draws its stream id now).
  repair::RepairService& addRepair(const repair::RepairConfig& config);
  [[nodiscard]] repair::RepairService* repair() {
    return repair_ ? &*repair_ : nullptr;
  }

  /// Routes injected churn into repair (when added): a failure is
  /// reported lost; a replacement runs `on_replacement(injector disk)`,
  /// where the driver empties the slot, then is reported back.
  void repairOnChurn(std::function<void(std::uint32_t)> on_replacement = {});

  /// Runs to `deadline`, lets `abort` settle every live session (so the
  /// drain cannot replay watchdog/retry chains past the deadline), then
  /// drains in-flight disk work so byte accounting is final.
  template <typename Abort>
  void quiesce(SimTime deadline, Abort&& abort) {
    engine_.runUntil(deadline);
    abort();
    engine_.run();
  }

 private:
  sim::Engine engine_;
  std::optional<trace::FlightRecorder> recorder_;
  std::optional<trace::Tracer> tracer_;
  client::Cluster cluster_;
  std::optional<telemetry::PeriodicSampler> sampler_;
  std::optional<repair::RepairService> repair_;
  std::vector<std::uint32_t> roster_;
  std::optional<fault::FaultInjector> injector_;
};

}  // namespace robustore::core
