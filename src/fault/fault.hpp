#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "disk/disk.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace robustore::fault {

/// The failure modes of the robustness story (§1.1, §5.3.1): single-site
/// fail-stop, nodes that fail *and recover* over time (Luby's
/// availability model), transient service pauses, and persistently slow
/// disks — the performance-variation end of the same spectrum.
enum class FaultKind : std::uint8_t {
  kFailStop,        // dead at `at`, forever
  kCrashRecover,    // dead during [at, at + duration)
  kTransientStall,  // service pauses during [at, at + duration); no loss
  kSlowDisk,        // service times x `service_multiplier` from `at` on
};

/// One scripted fault against one disk.
struct FaultSpec {
  /// Target disk. Interpreted by the scheduling caller: the experiment
  /// runner indexes the trial's *selected access disks* (so "disk 0" is
  /// the first disk of the access, whichever global disk that is);
  /// FaultInjector::schedule resolves it through its own resolver.
  std::uint32_t disk = 0;
  FaultKind kind = FaultKind::kFailStop;
  /// Injection time, relative to when the injector is armed.
  SimTime at = 0.0;
  /// Outage / stall length (crash-recover and transient-stall only).
  SimTime duration = 0.0;
  /// Service-time factor (slow-disk only); > 1 = degraded.
  double service_multiplier = 1.0;
};

/// Seeded-stochastic fault schedule: each disk independently draws at
/// most one fault, with kind probabilities evaluated in the order below
/// (a disk that fail-stops draws nothing else). All draws come from one
/// caller-provided Rng, so a (seed, trial) pair always produces the same
/// schedule — the parallel trial pool stays bit-identical.
struct FaultModel {
  /// Probability a disk fail-stops, at a uniform time in [0, horizon).
  double fail_stop_prob = 0.0;
  /// Probability of a crash-recover outage starting uniformly in
  /// [0, horizon), lasting Exp(mean_outage).
  double crash_prob = 0.0;
  SimTime mean_outage = 1.0;
  /// Probability of a transient stall starting uniformly in [0, horizon),
  /// lasting Exp(mean_stall).
  double stall_prob = 0.0;
  SimTime mean_stall = 0.1;
  /// Probability a disk is a straggler from t=0, with its service-time
  /// multiplier uniform in [straggler_min, straggler_max).
  double straggler_prob = 0.0;
  double straggler_min = 2.0;
  double straggler_max = 4.0;
  /// Injection-time window for the draws above.
  SimTime horizon = 1.0;

  [[nodiscard]] bool enabled() const {
    return fail_stop_prob > 0.0 || crash_prob > 0.0 || stall_prob > 0.0 ||
           straggler_prob > 0.0;
  }
};

/// Renewal-process churn (the long-horizon durability model): each disk
/// independently alternates Exp(1/failure_rate) lifetimes with a fixed
/// provisioning delay. A churn failure is *permanent data loss* for that
/// disk slot — unlike kCrashRecover, the replacement arrives empty, so
/// whatever lived there must be regenerated (repair::RepairService) or it
/// is gone. Horizons are meant to be ≫ one access: many failures per disk
/// per run.
struct ChurnModel {
  /// Permanent-failure rate λ per disk, failures per simulated second.
  double failure_rate = 0.0;
  /// Provisioning delay: how long a slot stays empty before the
  /// replacement disk comes up (its lifetime clock restarts then).
  SimTime replacement_delay = 60.0;
  /// Draw failure/replacement events in [0, horizon).
  SimTime horizon = 0.0;

  [[nodiscard]] bool enabled() const {
    return failure_rate > 0.0 && horizon > 0.0;
  }
};

enum class ChurnEventKind : std::uint8_t {
  kPermanentFailure,  // disk slot dies; its contents are lost for good
  kReplacement,       // empty replacement disk comes up in the same slot
};

struct ChurnEvent {
  std::uint32_t disk = 0;  // resolved like FaultSpec::disk
  ChurnEventKind kind = ChurnEventKind::kPermanentFailure;
  /// Event time, relative to when the injector is armed.
  SimTime at = 0.0;
};

/// Silent block corruption: the stored block at index `block` on `disk`
/// (both interpreted by the caller's applier — the injector itself has no
/// notion of files) is damaged in place at time `at`. The disk keeps
/// serving it; the *reader* detects the damage via its checksum and
/// treats the delivery as a loss. The scheduling seam lives here so
/// corruption composes with the rest of the fault vocabulary (tracing,
/// injection ledger, batch arming) even though its effect is applied at
/// the file layer.
struct CorruptionSpec {
  std::uint32_t disk = 0;  // resolved by the applier, like FaultSpec::disk
  /// Which stored block on that disk (applier-defined indexing; chaos
  /// campaigns take it modulo the placement's stored count).
  std::uint32_t block = 0;
  /// Injection time, relative to when the injector is armed.
  SimTime at = 0.0;
};

/// A full failure scenario: an explicit script, a stochastic model, a
/// churn process, or any mix. Part of ExperimentConfig, applied
/// identically to every trial (the stochastic draws differ per trial,
/// deterministically).
struct FaultPlan {
  std::vector<FaultSpec> scripted;
  FaultModel model;
  ChurnModel churn;

  [[nodiscard]] bool enabled() const {
    return !scripted.empty() || model.enabled() || churn.enabled();
  }
};

/// Drives faults into disks through the sim engine. Decoupled from any
/// cluster type via the resolver: callers hand in "disk index -> Disk&"
/// for whatever roster the schedule's indices refer to.
///
/// Overlapping faults on one disk obey an explicit precedence, tracked
/// per disk inside the injector (the disk itself only knows failed/not):
///
///   1. kFailStop is permanent: no pending crash-recover outage may
///      resurrect the disk afterwards. Only a churn kReplacement (fresh
///      hardware in the slot) clears the permanent state.
///   2. Overlapping kCrashRecover outages merge: the disk stays down
///      until the *latest* outage end. The failure listener fires once
///      (Disk::failStop is idempotent) and recovery happens once.
///   3. A kTransientStall landing while the disk is down is subsumed —
///      a dead disk has nothing to pause. Stalls on a live disk extend
///      each other as before (Disk::stall already merges windows).
///
/// Before this was pinned down, an outage's unconditional recover()
/// could revive a disk inside a later overlapping outage — or one that
/// had permanently fail-stopped in between.
class FaultInjector {
 public:
  using DiskResolver = std::function<disk::Disk&(std::uint32_t)>;
  /// Observer of churn events, fired after the disk verb was applied —
  /// the repair service's detection hook (metadata availability updates,
  /// lost-block enumeration).
  using ChurnListener = std::function<void(const ChurnEvent&)>;

  FaultInjector(sim::Engine& engine, DiskResolver resolve)
      : engine_(&engine), resolve_(std::move(resolve)) {}

  /// Schedules one fault (times relative to now). Injection happens via
  /// engine events, so arming before engine.run() is safe.
  void schedule(const FaultSpec& spec);

  /// Schedules a whole fault schedule in one engine batch (same event
  /// order as calling schedule() per spec).
  void scheduleAll(const std::vector<FaultSpec>& specs);

  /// Schedules a churn event stream (times relative to now) in one engine
  /// batch. Failures mark the disk permanently down; replacements clear
  /// all fault state for the slot and bring the disk back empty.
  void scheduleChurn(const std::vector<ChurnEvent>& events);

  void setChurnListener(ChurnListener listener) {
    churn_listener_ = std::move(listener);
  }

  /// Applies a corruption to whatever data model the caller runs (mark
  /// the block in a StoredFile, notify the repair service, ...). Must be
  /// set before any scheduled corruption fires.
  using CorruptionApplier = std::function<void(const CorruptionSpec&)>;
  void setCorruptionApplier(CorruptionApplier applier) {
    corruption_applier_ = std::move(applier);
  }

  /// Schedules block corruptions (times relative to now) in one engine
  /// batch. Each firing counts in corruptionsInjected() and traces a
  /// "fault.inject.corrupt_block" instant before the applier runs.
  void scheduleCorruption(const std::vector<CorruptionSpec>& specs);

  /// Draws the stochastic schedule for `num_disks` disks from `rng`.
  /// Pure: consumes a fixed number of draws per disk regardless of
  /// outcome, so schedules for different disks never shift each other.
  [[nodiscard]] static std::vector<FaultSpec> drawSchedule(
      const FaultModel& model, std::uint32_t num_disks, Rng& rng);

  /// Draws the renewal-process churn schedule for `num_disks` disks.
  /// Each disk gets its own forked child stream (one parent draw per
  /// disk), so a disk's failure count never shifts another disk's
  /// timeline and a shorter roster draws a prefix of a longer one's.
  /// Events are emitted per disk in time order.
  [[nodiscard]] static std::vector<ChurnEvent> drawChurn(
      const ChurnModel& model, std::uint32_t num_disks, Rng& rng);

  /// Records a "fault.inject" instant per applied fault. Null = off.
  void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Faults whose injection time arrived (per kind, cumulative).
  [[nodiscard]] std::uint32_t injected(FaultKind kind) const {
    return injected_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint32_t injectedTotal() const;

  /// Scheduled faults whose injection time has not arrived yet
  /// (telemetry probe: the countdown the timeline plots).
  [[nodiscard]] std::uint32_t pendingFaults() const {
    return scheduled_ - injectedTotal();
  }

  /// Churn events whose time arrived (cumulative).
  [[nodiscard]] std::uint32_t churnFailures() const { return churn_failures_; }
  [[nodiscard]] std::uint32_t churnReplacements() const {
    return churn_replacements_;
  }

  /// Corruptions whose injection time arrived (cumulative; counted even
  /// when the applier decides the target block no longer exists).
  [[nodiscard]] std::uint32_t corruptionsInjected() const {
    return corruptions_injected_;
  }

 private:
  /// Per-disk overlap bookkeeping for the precedence rules above.
  struct DiskFaultState {
    bool permanent = false;   // kFailStop or churn failure landed
    SimTime down_until = 0.0; // latest crash-recover outage end
  };

  void apply(const FaultSpec& spec);
  void applyChurn(const ChurnEvent& event);
  void applyCorruption(const CorruptionSpec& spec);
  void maybeRecover(std::uint32_t disk);

  sim::Engine* engine_;
  DiskResolver resolve_;
  trace::Tracer* tracer_ = nullptr;
  ChurnListener churn_listener_;
  CorruptionApplier corruption_applier_;
  std::unordered_map<std::uint32_t, DiskFaultState> state_;
  std::uint32_t scheduled_ = 0;
  std::uint32_t injected_[4] = {0, 0, 0, 0};
  std::uint32_t churn_failures_ = 0;
  std::uint32_t churn_replacements_ = 0;
  std::uint32_t corruptions_injected_ = 0;
};

}  // namespace robustore::fault
