#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "client/cluster.hpp"
#include "client/scheme.hpp"
#include "metrics/metrics.hpp"
#include "server/admission.hpp"
#include "trace/flight_recorder.hpp"

namespace robustore::core {

/// Multi-user workload experiment (§5.4): several clients read large
/// files from the same cluster concurrently. Without admission control,
/// their streams interleave on shared disks and the extra seeks collapse
/// every disk's throughput; with per-disk admission budgets the clients
/// spread over disjoint disks and the system sustains far higher total
/// throughput.
struct MultiClientConfig {
  std::uint32_t num_servers = 16;
  std::uint32_t disks_per_server = 8;
  SimTime round_trip = 1.0 * kMilliseconds;
  double nic_bandwidth = mbps(250.0);
  disk::DiskParams disk_params;
  server::AdmissionConfig admission;

  client::SchemeKind scheme = client::SchemeKind::kRobuStore;
  client::AccessConfig access;  // per client
  client::LayoutPolicy layout;  // homogeneous isolates the sharing effect
  std::uint32_t num_clients = 8;
  std::uint32_t disks_per_access = 16;
  /// Arrival spacing between successive clients.
  SimTime stagger = 50 * kMilliseconds;
  /// Rejected clients retry their disk selection after this long.
  SimTime retry_interval = 250 * kMilliseconds;
  std::uint64_t seed = 42;

  /// Accesses each client performs back to back on a core::ClientLoop;
  /// each finished access has its queued speculative tail cancelled. 1
  /// (the default) is the legacy single-access experiment, bit-identical
  /// to prior releases: metrics are collected after the global drain, so
  /// bytes of requests still in service count. Larger values run a
  /// sequential campaign per client: each access is collected when it
  /// finishes, before its in-service requests settle, and the client
  /// re-selects disks for the next one.
  std::uint32_t accesses_per_client = 1;
  /// Pause between a client's access completion and its next selection.
  SimTime think_time = 0.0;
  /// Incremental Fisher–Yates disk selection: draws only as many RNG
  /// values as candidates examined instead of permuting every disk per
  /// access (O(num_disks) — prohibitive at 10³ disks × 10⁶ accesses).
  /// Statistically equivalent but a different RNG stream, so it changes
  /// results vs the legacy path: opt in for datacenter-scale campaigns.
  bool fast_selection = false;
  /// Simulated-time bound for the whole campaign; 0 uses access.timeout
  /// (the legacy bound, right for single accesses).
  SimTime run_deadline = 0.0;

  /// Always-on flight recorder over the whole campaign (core::Stack);
  /// results are bitwise identical with it on or off. Surfaces via
  /// MultiClientResult::flight.
  bool flight = false;
  trace::FlightRecorderConfig flight_config;
};

struct MultiClientResult {
  /// Per-access metrics over the client population: one entry per
  /// finished access, plus one incomplete entry per client whose latest
  /// access the deadline caught mid-flight. A campaign adds nothing for
  /// an access that never started (its client still thinking or refused
  /// admission); the single-access experiment adds an incomplete entry
  /// for it, as it always has.
  metrics::AccessAggregate accesses;
  /// Total useful bytes over the makespan (first arrival to last
  /// completion) — the system-throughput view of §5.4.
  double system_throughput_mbps = 0.0;
  SimTime makespan = 0.0;
  std::uint64_t admission_refusals = 0;
  /// Clients that completed their full campaign (all accesses).
  std::uint32_t clients_completed = 0;
  std::uint64_t accesses_completed = 0;

  /// Engine counters for the run — deterministic (simulation-side), used
  /// by the scale sweep to report event volume and working-set size.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::size_t peak_live_events = 0;

  /// Sim time when the post-deadline drain finished. Every session is
  /// aborted at the deadline (settling its reissue/watchdog chains), so
  /// this stays close to the deadline — bounded by in-service disk work,
  /// not by request timeouts.
  SimTime drained_at = 0.0;

  /// The campaign's flight recorder when config.flight was set (shared
  /// so results stay copyable); null otherwise.
  std::shared_ptr<trace::FlightRecorder> flight;
};

class MultiClientExperiment {
 public:
  explicit MultiClientExperiment(MultiClientConfig config);

  [[nodiscard]] MultiClientResult run();

 private:
  MultiClientConfig config_;
};

}  // namespace robustore::core
