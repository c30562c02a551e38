#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "sim/small_fn.hpp"

namespace robustore::sim {

/// Handle to a scheduled event; lets the owner cancel it before it fires.
/// Cancellation is the heart of RobuSTore's speculative access, so it is a
/// first-class engine operation rather than a bolt-on.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
};

/// Lifetime counters for one engine instance. peak_live is the high-water
/// mark of simultaneously pending events — the scale sweep reports it as
/// the engine's working-set size. overflow_scheduled counts events that
/// landed beyond the calendar horizon (far-future timeouts); if it rivals
/// `scheduled`, the bucket geometry no longer matches the workload.
struct EngineStats {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t overflow_scheduled = 0;
  /// Times the calendar re-fitted its bucket width to observed event
  /// density (a Brown-style resize; see maybeResizeWheel()).
  std::uint64_t wheel_resizes = 0;
  std::size_t peak_live = 0;
};

/// Deterministic discrete-event engine.
///
/// Events at equal timestamps fire in scheduling order (a monotonically
/// increasing sequence number breaks ties), so a simulation driven by a
/// seeded Rng replays bit-identically regardless of scheduler internals.
///
/// ## Scheduler: calendar queue over a slab allocator
///
/// The binary-heap scheduler this replaced pays O(log n) per insert and
/// pop, and `std::function` slots heap-allocate most captures — at 10⁶+
/// live events per datacenter-scale trial both costs dominate the host
/// profile. This engine keeps three tiers, by distance from now():
///
///  1. `current_` — a small min-heap, ordered by (time, seq), holding
///     every live event whose bucket ordinal has already been reached.
///     Only this tier pays comparison-sort cost, and it only ever holds
///     one bucket's worth of events (plus same-ordinal stragglers).
///  2. the wheel — `num_buckets_` unsorted singly-linked chains through
///     the node slab, one bucket per `bucket_width_` of simulated time.
///     Insert is O(1): stamp the node, link it to its bucket. When the
///     clock enters a bucket, its chain is harvested and heapified.
///  3. `overflow_` — a priority queue for events beyond the wheel's
///     horizon (`num_buckets_ * bucket_width_` seconds of simulated
///     time, e.g. hour-scale access timeouts). Drained into the wheel as
///     the window advances; an overflow event costs what the old heap
///     charged every event.
///
/// The wheel geometry adapts to the workload (Brown's calendar-queue
/// resize): every ~64Ki dispatches the engine re-fits the bucket width
/// to the observed mean inter-fire gap (~2 events per bucket) and the
/// bucket count to the live-event population, and rebuilds the wheel
/// when either drifted past its hysteresis band. Width alone is not
/// enough: under a dense storm the fitted width shrinks with event
/// density, and with a fixed bucket count the horizon would shrink
/// below the typical scheduling lead time, dumping the hot path into
/// the overflow heap. Scaling the bucket count with the pending set
/// keeps the horizon at roughly twice the live population's span.
/// Resizing is O(wheel population), amortised by growing the check
/// interval to match, and depends only on simulation state, so replays
/// resize identically.
///
/// Determinism argument: bucket assignment `ordinalOf(t)` is a monotone
/// function of t, and ordinals are harvested in increasing order only
/// after every earlier-ordinal event has fired, so an event can never
/// fire before another with a smaller (time, seq). Within a bucket the
/// unsorted chain order is irrelevant — the harvest heap re-sorts by
/// (time, seq). Geometry (bucket width, resizes) therefore cannot change
/// the firing order, only how cheaply it is produced. The total order is
/// exactly the old heap's; the scheduler-equivalence storm test pins
/// this against `ReferenceEngine`.
///
/// Callbacks live in a slab of recycled nodes (`SmallFn` inline buffer,
/// no per-event allocation for captures ≤48 bytes); storage stays
/// proportional to *pending* events even across tens of millions.
class Engine {
 public:
  using Callback = SmallFn<>;

  /// Schedules `cb` to run `delay` seconds from now. Negative delays clamp
  /// to "now" (they arise from zero-length transfers rounding down).
  EventId schedule(SimTime delay, Callback cb);

  /// Schedules at an absolute simulated time (must not be in the past).
  EventId scheduleAt(SimTime when, Callback cb);

  /// One element of a scheduleBatch burst.
  struct BatchEvent {
    SimTime delay = 0.0;  // relative to now(), clamped like schedule()
    Callback fn;
  };

  /// Schedules a homogeneous burst in one call — semantically identical
  /// to calling schedule() on each element in order (same seq numbers,
  /// same firing order), but reserves slab and heap capacity up front so
  /// the disk/net layers' abort storms and client start waves don't pay
  /// per-event growth. If `ids` is non-null it must point to
  /// events.size() entries and receives the handle of each event.
  void scheduleBatch(std::span<BatchEvent> events, EventId* ids = nullptr);

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled. Cancelled events are lazily discarded when their tier
  /// reaches them.
  bool cancel(EventId id);

  /// Runs until the queue drains or stop() is called. Returns events fired.
  std::size_t run();

  /// Runs until simulated time exceeds `deadline` (events at exactly
  /// `deadline` still fire). Returns events fired.
  std::size_t runUntil(SimTime deadline);

  /// Requests the run loop halt after the current event completes.
  ///
  /// Contract: the stop request applies to the *current* run only. Both
  /// run() and runUntil() clear it on entry, so a subsequent call resumes
  /// from the remaining queue instead of returning immediately — callers
  /// rely on this to drain pending work after a stopped campaign (e.g.
  /// MultiClientExperiment stops at completion, then run()s the tail).
  /// stop() outside a run loop therefore has no effect on the next run.
  void stop() { stopped_ = true; }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pendingEvents() const { return live_events_; }

  /// Lifetime scheduling counters (see EngineStats).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  using TimeObserver = std::function<void(SimTime)>;

  /// Observer invoked whenever the clock advances: before the event that
  /// moved it executes, and on the runUntil boundary advance. This is the
  /// telemetry sampler's hook — it sees every distinct timestamp without
  /// consuming an event or perturbing the queue, so observed runs stay
  /// bit-identical to unobserved ones. The observer must only *read*
  /// simulation state: scheduling or cancelling from it is undefined.
  /// Empty (the default) disables the hook.
  void setTimeObserver(TimeObserver observer) {
    time_observer_ = std::move(observer);
  }

 private:
  /// Power-of-two bucket-count bounds. The count tracks the live-event
  /// population (see maybeResizeWheel): with ~2 events per bucket the
  /// horizon `num_buckets_ * bucket_width_` then spans roughly twice the
  /// pending set, so freshly scheduled traffic lands on the wheel and
  /// only far-future watchdogs spill to overflow. The ceiling bounds the
  /// empty-bucket walk and the resize cost (a 1 Mi-bucket wheel is 4 MB).
  static constexpr std::int64_t kMinBuckets = 4096;
  static constexpr std::int64_t kMaxBuckets = std::int64_t{1} << 20;
  static constexpr double kInitialBucketWidth = 1e-3;  // seconds
  /// Density re-fit bounds: a nanosecond floor for event storms, a
  /// one-second ceiling (horizon ~68 min) for sparse timelines.
  static constexpr double kMinBucketWidth = 1e-9;
  static constexpr double kMaxBucketWidth = 1.0;
  /// Dispatches between density checks (lower bound; grows with wheel
  /// population so a resize stays amortised O(1) per event).
  static constexpr std::uint64_t kGeometryCheckInterval = 65536;

  enum class NodeState : std::uint8_t { kFree, kArmed, kDead };

  /// Slab node: one pending (or lazily-dead) event. `next` threads the
  /// node into its wheel bucket's chain; 0 terminates (node 0 reserved).
  struct Node {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t next = 0;
    std::uint32_t generation = 0;
    NodeState state = NodeState::kFree;
    SmallFn<> fn;
  };

  /// Entry in the current-bucket heap and the overflow tier. Carries
  /// (time, seq) so ordering never touches the node.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;
    [[nodiscard]] bool operator>(const HeapEntry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  static constexpr std::uint64_t makeHandle(std::uint32_t slot,
                                            std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) << 32) | gen;
  }
  static constexpr std::uint32_t slotOf(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  static constexpr std::uint32_t genOf(std::uint64_t h) {
    return static_cast<std::uint32_t>(h);
  }

  /// Monotone time → bucket ordinal map (under the current width);
  /// saturates for absurdly large times (so +inf-ish timeouts sort in
  /// the overflow tier by (time, seq) instead of overflowing the cast).
  [[nodiscard]] std::int64_t ordinalOf(SimTime t) const;

  std::uint32_t allocNode();
  void freeNode(std::uint32_t idx);
  EventId insert(SimTime when, SmallFn<> fn);
  /// Files a freshly stamped node into the tier its ordinal selects.
  void place(std::uint32_t idx);
  void pushCurrent(HeapEntry entry);
  HeapEntry popCurrent();
  /// Ensures current_ has a live top; advances the wheel / re-anchors on
  /// overflow as needed. Returns false when no live event exists anywhere.
  bool refill();
  void advanceWheel();
  void harvestBucket(std::int64_t bucket);
  void drainOverflow();
  /// Periodic density check: re-fits bucket_width_ to the observed mean
  /// inter-fire gap and num_buckets_ to the live population, rebuilding
  /// the wheel when either drifted past its hysteresis band.
  void maybeResizeWheel();
  /// Re-threads every armed wheel node under a new geometry. Firing
  /// order is unaffected — placement is a pure function of
  /// (time, width, bucket count).
  void rebuildWheel(double new_width, std::int64_t new_buckets);
  std::size_t runLoop(SimTime deadline);

  // node 0 reserved: null chain link, and EventId{0} stays invalid
  std::vector<Node> nodes_ = std::vector<Node>(1);
  std::vector<std::uint32_t> free_nodes_;
  std::vector<std::uint32_t> buckets_ =
      std::vector<std::uint32_t>(kMinBuckets, 0);
  std::vector<HeapEntry> current_;  // min-heap via std::*_heap + greater
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      overflow_;
  std::int64_t current_ord_ = 0;  // highest bucket ordinal harvested so far
  std::size_t wheel_count_ = 0;   // nodes chained on the wheel (incl. dead)
  std::int64_t num_buckets_ = kMinBuckets;  // always a power of two
  double bucket_width_ = kInitialBucketWidth;
  double inv_bucket_width_ = 1.0 / kInitialBucketWidth;
  std::uint64_t next_geometry_check_ = kGeometryCheckInterval;
  std::uint64_t fired_at_last_check_ = 0;
  SimTime now_at_last_check_ = 0.0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  bool stopped_ = false;
  EngineStats stats_;
  TimeObserver time_observer_;
};

}  // namespace robustore::sim
