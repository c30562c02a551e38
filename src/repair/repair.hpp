#pragma once

#include <cstdint>
#include <vector>

#include "client/cluster.hpp"
#include "client/stored_file.hpp"
#include "common/units.hpp"

namespace robustore::repair {

/// How a protected file's redundancy is reasoned about (decodability and
/// repair-read planning). Orthogonal to the access scheme that wrote it:
/// the repair service only sees placements and block ids.
enum class RedundancyClass : std::uint8_t {
  kReplication,  // originals with copies; live = every original covered
  kMds,          // any k distinct coded blocks decode (RS-style)
  kLt,           // decodability decided by the file's real LT graph
};

/// Per-file repair policy.
struct RepairPolicy {
  RedundancyClass klass = RedundancyClass::kMds;
  /// Decode threshold (kMds / kLt lower bound); replication ignores it.
  std::uint32_t k = 0;
  /// Regenerating repair (Dimakis): each lost block is rebuilt from
  /// partial reads of `helpers` live placements (beta = B/(d-k+1) bytes
  /// each) instead of one full k-block decode per placement batch.
  /// kMds only; 0 helpers = use every live placement.
  bool regenerating = false;
  std::uint32_t helpers = 0;
};

struct RepairConfig {
  /// Period of the metadata scan that turns lost placements into repair
  /// jobs (and audits decodability). The detection delay of the model.
  SimTime scan_interval = 10.0;
  /// Repair-bandwidth budget in bytes/second: jobs are admitted through
  /// a token bucket at this rate (read + write bytes both count), so a
  /// small budget stretches the re-protection window. The actual I/O
  /// still contends with foreground traffic on the simulated disks and
  /// links once admitted.
  double bandwidth_budget = mbps(50.0);
  /// Stop scheduling scans past this sim time (0 = keep scanning as long
  /// as the engine runs).
  SimTime horizon = 0.0;
};

struct RepairStats {
  std::uint64_t scans = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t repairs_aborted = 0;  // target/helper died mid-repair
  std::uint64_t blocks_repaired = 0;
  Bytes bytes_read = 0;     // repair reads delivered (partial or full)
  Bytes bytes_written = 0;  // repair writes committed
  /// Scans at which some protected file was found undecodable. Each event
  /// models an external restore (the sweep's MTTDL numerator).
  std::uint32_t loss_events = 0;
};

/// The background repair service of the durability story: watches the
/// metadata server's disk liveness, finds placements wiped out by churn
/// (permanent failure + empty replacement), and regenerates their blocks
/// from surviving redundancy under a bandwidth budget.
///
/// Detection is scan-based: a churn notification (wired from
/// fault::FaultInjector's churn listener via onDiskFailed/onDiskReplaced)
/// updates the metadata liveness bit and marks affected placements lost,
/// but repairs are only planned at the periodic scan — so detection delay
/// and repair pacing both stretch the window in which a second failure
/// can strike. A file found undecodable at scan time counts one loss
/// event and is restored from an (un-simulated) external copy so the
/// campaign can keep measuring.
class RepairService {
 public:
  RepairService(client::Cluster& cluster, RepairConfig config);

  /// Registers a file for protection. The file must outlive the service;
  /// its placements' stored lists are treated as the durable contents.
  void protect(client::StoredFile& file, RepairPolicy policy);

  /// Schedules the first scan (call once, before or during the run).
  void start();

  /// Churn wiring (global disk indices). onDiskFailed marks every
  /// protected placement on the disk lost and flips the metadata
  /// liveness bit; onDiskReplaced flips it back — the empty replacement
  /// is only refilled by a later repair job.
  void onDiskFailed(std::uint32_t global_disk);
  void onDiskReplaced(std::uint32_t global_disk);

  /// Corruption wiring: a block of `file`'s placement `p` was damaged in
  /// place (client::StoredFile corruption flags). Repair granularity is
  /// the placement, so the whole slot goes lost and its generation bumps
  /// — an in-flight repair job for the slot becomes stale and aborts
  /// rather than marking half-corrupt contents intact. The rebuild
  /// rewrites every block on the slot and clears the file's corruption
  /// flags for it. Unknown files are ignored (unprotected).
  void onBlockCorrupted(const client::StoredFile& file, std::uint32_t p);

  [[nodiscard]] const RepairStats& stats() const { return stats_; }
  /// Jobs admitted but not yet finished (telemetry probe).
  [[nodiscard]] std::uint32_t pendingRepairs() const {
    return pending_repairs_;
  }
  /// Placements currently lost or being rebuilt (telemetry probe).
  [[nodiscard]] std::uint32_t degradedPlacements() const;

 private:
  enum class SlotState : std::uint8_t { kIntact, kLost, kRepairing };

  struct Slot {
    SlotState state = SlotState::kIntact;
    /// Bumped whenever the placement's contents are invalidated (disk
    /// failure, external restore): in-flight job callbacks compare it to
    /// drop stale completions.
    std::uint32_t gen = 0;
    /// A loss-event restore found this slot's disk down: the external
    /// copy refills the slot the moment its replacement arrives (the
    /// restore spans the whole file, not just the disks up at scan time).
    bool restore_pending = false;
  };

  struct Protected {
    client::StoredFile* file = nullptr;
    RepairPolicy policy;
    std::vector<Slot> slots;
    /// Lost set changed since the last decodability audit.
    bool dirty = false;
  };

  /// One planned repair read: `bytes` 0 = full block.
  struct ReadOp {
    std::uint32_t placement = 0;
    std::uint32_t stored_pos = 0;
    Bytes bytes = 0;
  };

  void scan();
  [[nodiscard]] bool decodable(const Protected& pf) const;
  /// Loss-event handling: restore every placement whose disk is up from
  /// the external copy; down disks stay lost until replaced + repaired.
  void restore(Protected& pf);
  /// Plans the helper reads for rebuilding placement `target` of `pf`.
  /// Empty plan with `ok=false` = not repairable right now.
  [[nodiscard]] bool planReads(const Protected& pf, std::uint32_t target,
                               std::vector<ReadOp>& out) const;
  void scheduleRepair(std::uint32_t file_idx, std::uint32_t target);
  void runRepair(std::uint32_t file_idx, std::uint32_t target,
                 std::uint32_t gen, std::vector<ReadOp> reads);

  client::Cluster* cluster_;
  RepairConfig config_;
  disk::StreamId stream_;
  std::vector<Protected> files_;
  RepairStats stats_;
  /// Token bucket: the time at which budgeted bandwidth frees up next.
  SimTime budget_at_ = 0.0;
  std::uint32_t pending_repairs_ = 0;
  bool started_ = false;
};

}  // namespace robustore::repair
