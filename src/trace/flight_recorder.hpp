#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "trace/trace.hpp"

namespace robustore::trace {

/// Flight-recorder tuning. Defaults are sized for million-access
/// campaigns: one 64-event ring (1 KiB) per in-flight access, the 16
/// slowest accesses of a trial retained for forensics.
struct FlightRecorderConfig {
  /// Ring capacity in events per access. When an access emits more, the
  /// ring keeps the newest `ring_events` (exact stage totals are
  /// maintained outside the ring, so breakdowns never lose time).
  std::uint32_t ring_events = 64;
  /// Retain the slowest-K completed accesses per recorder. When full, a
  /// new record replaces the fastest retained one only if strictly
  /// slower — first-seen wins ties, so retention is deterministic.
  std::uint32_t keep_slowest = 16;
};

/// One compact event in an access's ring: 16 bytes, plain data. Times
/// are stored relative to the access start as floats — a float holds
/// ~7 significant digits, plenty for intra-access offsets while keeping
/// the record half the size of two doubles.
struct FlightEvent {
  enum Kind : std::uint8_t { kStageSpan = 0, kNamedSpan = 1, kInstant = 2 };

  float rel_end = 0.0f;    // span end (or instant time) - access start
  float duration = 0.0f;   // span length; 0 for instants
  std::uint8_t kind = kStageSpan;
  std::uint8_t stage = kNoStage;  // Stage index for kStageSpan
  std::uint16_t name = 0;         // recorder name-table index (non-stage)
  std::uint32_t disk = kNoDisk;
};
static_assert(sizeof(FlightEvent) == 16, "FlightEvent must stay compact");

/// Everything the recorder knows about one access: the bounded event
/// ring plus exact aggregates maintained outside it (stage totals,
/// reissue/loss counters, per-disk busy time) that survive ring wrap.
struct FlightRecord {
  std::uint64_t stream = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  bool closed = false;
  bool complete = false;

  StageBreakdown stages;
  std::uint32_t reissues = 0;
  std::uint32_t blocks_lost = 0;
  std::uint32_t blocks_corrupt = 0;
  /// Total events offered (>= ring size once wrapped).
  std::uint32_t events_seen = 0;

  /// Disk-stage busy seconds per disk id (bounded; see kMaxDisks).
  /// The argmax is the straggler attribution.
  std::vector<std::pair<std::uint32_t, double>> disk_busy;

  std::vector<FlightEvent> events;  // ring storage, capacity fixed
  std::uint32_t ring_head = 0;      // oldest entry once wrapped

  [[nodiscard]] double latency() const { return end - start; }
  [[nodiscard]] bool wrapped() const {
    return events_seen > events.capacity();
  }
};

/// Always-on per-access flight recorder. Attached as the sink of a
/// (usually disabled) Tracer, it sees every span/instant the existing
/// instrumentation sites emit and keeps a fixed-size ring per in-flight
/// access — no allocation on the steady-state hot path (records and
/// stream slots are pooled and reused), no engine events, no rng, no
/// sim-time perturbation. At trial end the slowest-K accesses survive
/// for retroactive expansion into full Chrome traces (expand()).
///
/// Determinism: retention compares latencies with strict inequality
/// (first-seen wins ties) and absorb() re-offers records in insertion
/// order, so per-trial recorders folded in trial order produce the same
/// retained set at any thread count.
class FlightRecorder {
 public:
  /// Bound on per-record disk_busy entries (an access touches at most
  /// disks_per_access disks; 64 covers every configured workload).
  static constexpr std::size_t kMaxDisks = 64;
  /// Bound on the global fault log.
  static constexpr std::size_t kMaxFaults = 8192;

  explicit FlightRecorder(FlightRecorderConfig config = {});

  [[nodiscard]] const FlightRecorderConfig& config() const { return config_; }

  /// --- access lifecycle (called by the schemes) -----------------------
  void beginAccess(std::uint64_t stream, SimTime now);
  /// Idempotent: closing an already-closed (or never-begun) stream is a
  /// no-op, so the settle-path fallback can't double-close.
  void endAccess(std::uint64_t stream, SimTime end, bool complete);

  /// --- Tracer sink hooks ----------------------------------------------
  /// Span/instant names must outlive the recorder (string literals or
  /// tracer-interned; both hold in this codebase).
  void onSpan(Stage stage, SimTime begin, SimTime end, std::uint64_t access,
              std::uint32_t disk);
  void onNamedSpan(const char* name, SimTime begin, SimTime end,
                   std::uint64_t access, std::uint32_t disk);
  void onInstant(const char* name, SimTime at, std::uint64_t access,
                 std::uint32_t disk);

  /// --- trial-end forensics --------------------------------------------
  [[nodiscard]] const std::vector<std::unique_ptr<FlightRecord>>& retained()
      const {
    return retained_;
  }

  /// Stage totals of the most recently closed access on `stream`
  /// (nullptr when none). Exactly the sums a tracer's breakdown() would
  /// give for that access — same addSpan calls in the same order,
  /// including spans that settle after the access closed — but O(1) and
  /// per-access-correct when campaigns reuse stream ids. (The retained
  /// FlightRecord's stages stop at close: forensics attribute what made
  /// completion late, not the cancelled tail behind it.)
  [[nodiscard]] const StageBreakdown* lastBreakdown(
      std::uint64_t stream) const;

  /// Number of fault.* instants with a <= t <= b (global, access-blind:
  /// fault injection traces with access id 0).
  [[nodiscard]] std::uint32_t faultsBetween(SimTime a, SimTime b) const;

  /// Straggler attribution: the disk with the most disk-stage busy time
  /// in `rec` (kNoDisk when the access never touched a disk).
  [[nodiscard]] static std::pair<std::uint32_t, double> stragglerDisk(
      const FlightRecord& rec);

  /// Replays `rec`'s ring into `out` (an enabled, sink-less tracer) as
  /// full Records: the access envelope, every retained span/instant, and
  /// the concurrent fault.* instants from the global log. Tracks are
  /// reconstructed from stage + disk id (disk stages -> diskTrack, net
  /// -> kClientLinkTrack, rest -> kClientTrack).
  void expand(const FlightRecord& rec, Tracer& out) const;

  /// Folds `other` into this recorder: fault log appended (time order is
  /// the caller's contract — absorb in trial order), retained records
  /// re-offered through the same retention rule, stats summed. `other`
  /// is drained.
  void absorb(FlightRecorder& other);

  /// --- stats -----------------------------------------------------------
  [[nodiscard]] std::uint64_t accessesBegun() const { return begun_; }
  [[nodiscard]] std::uint64_t accessesClosed() const { return closed_; }
  [[nodiscard]] std::uint64_t eventsSeen() const { return events_seen_; }
  [[nodiscard]] std::uint64_t faultsLogged() const { return faults_.size(); }

 private:
  struct StreamSlot {
    FlightRecord* open = nullptr;  // owned by records_/pool_
    StageBreakdown last;
    bool has_last = false;
  };
  struct FaultEntry {
    SimTime at = 0.0;
    std::uint32_t disk = kNoDisk;
    std::uint16_t name = 0;
  };

  [[nodiscard]] StreamSlot* findSlot(std::uint64_t access);
  [[nodiscard]] FlightRecord* openRecord(std::uint64_t access);
  void push(FlightRecord& rec, const FlightEvent& e);
  [[nodiscard]] std::uint16_t internName(const char* name);
  void offer(std::unique_ptr<FlightRecord> rec);
  void recycle(std::unique_ptr<FlightRecord> rec);
  void closeSlot(StreamSlot& slot, SimTime end, bool complete);

  FlightRecorderConfig config_;
  /// stream -> slot. Entries are never erased (campaigns reuse a bounded
  /// set of stream ids), so steady state does no per-access rehashing.
  std::unordered_map<std::uint64_t, StreamSlot> slots_;
  /// One-entry cache: consecutive events overwhelmingly share a stream.
  std::uint64_t cached_stream_ = 0;
  StreamSlot* cached_slot_ = nullptr;

  std::vector<std::unique_ptr<FlightRecord>> retained_;
  std::vector<std::unique_ptr<FlightRecord>> pool_;
  std::vector<FaultEntry> faults_;
  std::vector<const char*> names_;

  std::uint64_t begun_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t events_seen_ = 0;
};

}  // namespace robustore::trace
