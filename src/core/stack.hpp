#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "client/cluster.hpp"
#include "client/scheme.hpp"
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
/// chaos::runCampaign and the durability sweep keep only their workloads;
/// the closed-loop ones (multi-client, chaos) run them on a ClientLoop.
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

/// Closed-loop readers on one stack. Each of `schemes.size()` clients
/// reads `accesses` times through its scheme, the clients starting
/// `stagger` apart; a client thinks `think` between accesses and asks
/// `begin` again `retry` after a refusal. At `deadline` no access starts
/// any more: every session that has begun, current or retired, is
/// aborted (so no watchdog or retry chain outlives the run), then
/// in-flight disk work drains so byte accounting is final.
///
/// A finished access has its queued work cancelled and is shown to
/// `end`. If its client reads again, its session is retired: kept alive
/// while in-service disk requests still settle against it, and reaped
/// once drained if `end` collected it. Every access `end` did not
/// collect goes to `collect` after the drain, in (client, access) order.
///
/// The loop draws no number; its only events are the start storm, the
/// think and retry timers, and what the schemes schedule.
struct ClientLoop {
  /// One access of one client, as the hooks see it.
  struct Access {
    std::uint32_t client;
    std::uint32_t index;  // the client's access number
    client::Scheme::Session& session;
    /// False if the deadline came before the access started: its client
    /// was still thinking, or `begin` was still refusing it.
    bool begun;
  };

  /// The scheme client i reads through; one per client.
  std::vector<client::Scheme*> schemes{};
  client::AccessConfig access{};
  std::uint32_t accesses = 1;  // per client
  SimTime stagger = 0.0;
  SimTime think = 0.0;
  SimTime retry = 0.0;
  SimTime deadline = 0.0;
  /// The file the access reads, or null to ask again after `retry`. May
  /// set the session's stream (a fresh session has none, so beginRead
  /// draws one).
  std::function<client::StoredFile*(const Access&)> begin{};
  /// Sees each finished access; returns whether it collected it.
  std::function<bool(const Access&)> end{};
  /// Runs after the drain for every access `end` did not collect, begun
  /// or not.
  std::function<void(const Access&)> collect{};

  void run(Stack& stack) const;
};

}  // namespace robustore::core
