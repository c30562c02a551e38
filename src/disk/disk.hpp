#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "disk/layout.hpp"
#include "disk/params.hpp"
#include "sim/engine.hpp"
#include "sim/slab.hpp"
#include "sim/small_fn.hpp"
#include "trace/trace.hpp"

namespace robustore::disk {

/// Opaque request handle: a slot index and a generation packed into one
/// word. Slots are recycled once a request reaches a terminal state, so
/// per-disk memory stays proportional to in-flight work; the generation
/// makes stale handles resolve to nothing instead of to a recycled slot.
using RequestId = std::uint64_t;
using StreamId = std::uint64_t;

inline constexpr RequestId kInvalidRequest = ~RequestId{0};

/// Service classes. Background (competitive) requests are served ahead of
/// queued foreground blocks: this models the paper's measured sharing
/// behaviour (Figure 6-5: foreground bandwidth scales with the disk time
/// the background load leaves free) without simulating the OS scheduler.
enum class Priority : std::uint8_t { kForeground = 0, kBackground = 1 };

/// Lifecycle of one disk request:
///
///   pending ──► in_service ──► completed
///      │             │
///      ├─► cancelled │ (client cancel while queued)
///      │             │
///      └─────────────┴─► aborted (disk failure)
///
/// `completed`, `cancelled`, and `aborted` are terminal; the slot is
/// reclaimed as soon as the terminal notification has been handed off
/// (abort events are self-contained, so requestState() of a terminal
/// request reports nullopt once its slot is recycled).
enum class RequestState : std::uint8_t {
  kPending,
  kInService,
  kCompleted,
  kCancelled,
  kAborted,
};

/// One block-granular disk request: the extents of a stored block plus the
/// stream identity the sequentiality bookkeeping needs.
struct DiskRequestSpec {
  StreamId stream = 0;
  Priority priority = Priority::kForeground;
  /// Physical runs to touch, in stored order. A view (usually
  /// FileDiskLayout::blockExtents): submit() copies the runs into the
  /// request's slot, so the view need only outlive the call.
  std::span<const Extent> extents;
  /// Re-position before the first run even if it physically continues the
  /// previous one (the caller's predecessor block is not part of this
  /// request sequence, e.g. RRAID-A reading every c-th stored block).
  bool reposition_first = false;
  /// Nonzero = serve only the leading `max_bytes` of the runs: later runs
  /// are dropped and the last kept one is clipped (partial block reads).
  Bytes max_bytes = 0;
  /// Media transfer rate for this request's zone, bytes/second.
  double media_rate = 0.0;
  /// Scales the seek component of positioning; background generators use
  /// 0 to model locality-friendly mid-size requests (§6.2.5 calibration:
  /// a 50-sector background request occupies ~5.5 ms).
  double seek_scale = 1.0;
  bool is_write = false;
};

/// Block-level hard-drive model (DiskSim-lite).
///
/// Serves one request at a time; service time is the sum over extents of
/// command overhead, positioning (unless the extent physically continues
/// the previously served extent *and* no other stream intervened),
/// transfer at the zoned media rate, and track-switch costs. Queued
/// requests can be cancelled — the mechanism RobuSTore's speculative
/// access relies on (§5.3.3).
///
/// Scheduling discipline: background requests first (see Priority), then
/// round-robin across foreground *streams* at request granularity —
/// modelling OS-level fair I/O scheduling between competing clients. With
/// one foreground stream this degenerates to FCFS; with several it
/// produces exactly the interleaving-induced seek storms that §5.4's
/// admission control exists to prevent.
///
/// Failure model (§1.1, §5.3.1): a disk can fail-stop permanently or
/// crash and later recover(); it can stall() for a transient window
/// (service pauses, nothing is lost) and it can run degraded through a
/// service-time multiplier (straggler). Failure aborts every live request
/// and fires its failure callback, so clients learn immediately instead
/// of waiting out an access timeout.
///
/// Request ownership: each request lives in a recycled slot of this disk
/// that holds its runs (a copy of the submitted view, whose capacity the
/// slot keeps across reuse) and both callbacks, stored once, inline. The
/// slot is released on every terminal path: completion and abort move the
/// callback out first (it may re-enter submit()), a cancelled request is
/// released when its queue reaches it or its stream is cancelled. Queued
/// and engine-held references are generation-tagged RequestIds, never
/// pointers into the slab.
class Disk {
 public:
  /// Sized so the callback plus its RequestId fits the engine's inline
  /// event buffer when an abort notice carries it (see abortRequest).
  using CompletionFn = sim::SmallFn<void(RequestId), 24>;
  /// Fired (as a scheduled event, in queue order) when a request is
  /// aborted by a disk failure — at failure time for queued/in-service
  /// requests, at submit time for requests sent to an already-failed disk.
  using FailureFn = sim::SmallFn<void(RequestId), 24>;
  /// Disk-level failure notification (metadata/monitoring path).
  using FailureListener = std::function<void(std::uint32_t disk_id)>;

  Disk(sim::Engine& engine, const DiskParams& params, Rng rng,
       std::uint32_t id = 0);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueues a request; `done` fires at its service completion, `failed`
  /// if a disk failure aborts it. The returned handle is unique for the
  /// lifetime of the request; it resolves to nothing once the slot is
  /// reclaimed. Submitting to a failed disk aborts immediately (the
  /// failure callback is scheduled at the current time) and returns
  /// kInvalidRequest.
  RequestId submit(const DiskRequestSpec& spec, CompletionFn done,
                   FailureFn failed = nullptr);

  /// Cancels a queued request. Returns false when the request already
  /// started service (it will complete), finished, or never existed.
  bool cancel(RequestId id);

  /// Cancels every queued request of the given stream; returns the count.
  /// Walks only this stream's foreground queue and the background queue —
  /// cost is proportional to the live queue, not to history.
  std::size_t cancelStream(StreamId stream);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool busy() const { return in_service_ != kInvalidRequest; }
  [[nodiscard]] std::size_t queueDepth() const;
  /// Inside a transient-stall window right now (telemetry probe; the
  /// service path uses the window end directly).
  [[nodiscard]] bool stalled() const;

  /// State of a request, or nullopt once its slot has been reclaimed
  /// (terminal notification dispatched) or for handles that never existed.
  [[nodiscard]] std::optional<RequestState> requestState(RequestId id) const;

  /// Request slots currently allocated (pending + in service + terminal
  /// slots whose notification has not yet been dispatched). Stays
  /// proportional to in-flight work, never to submission history.
  [[nodiscard]] std::size_t liveRequestCount() const {
    return requests_.live();
  }

  /// Total bytes whose service completed, by priority class.
  [[nodiscard]] Bytes bytesServed(Priority p) const {
    return bytes_served_[static_cast<std::size_t>(p)];
  }
  /// Accumulated service time, by priority class (drives the utilisation
  /// metric of Figure 6-5). Time a request would have needed after a
  /// fail-stop is refunded: a disk that served nothing reports zero.
  [[nodiscard]] SimTime busyTime(Priority p) const {
    return busy_time_[static_cast<std::size_t>(p)];
  }

  /// Media rate for a zone position in [0, 1] under this disk's params.
  [[nodiscard]] double mediaRate(double zone) const;

  /// Bytes of the currently in-service request if it belongs to `stream`
  /// (the "in-flight at cancellation" I/O-overhead term), else 0.
  [[nodiscard]] Bytes inServiceBytes(StreamId stream) const;

  /// Releases all finished request bookkeeping. Must only be called when
  /// the disk is idle with an empty queue (i.e. between trials, after the
  /// engine drained); keeps memory proportional to one trial.
  void reset();

  /// Fail-stop: the disk stops serving. Every queued request and the
  /// in-service request are aborted (their failure callbacks fire as
  /// events at the current time, never their completions) and requests
  /// submitted while failed abort immediately. The unserved remainder of
  /// the in-service request is refunded from busyTime(). Models the
  /// single-site failures the architecture tolerates (§1.1, §5.3.1).
  void failStop();
  [[nodiscard]] bool failed() const { return failed_; }

  /// Crash-and-recover: brings a failed disk back. Requests lost to the
  /// crash stay lost (clients re-issue); new submissions serve normally.
  void recover();

  /// Transient stall: service pauses for `duration` from now. The
  /// in-service request's completion is postponed by the remaining stall
  /// window; queued and new requests start after it ends. Overlapping
  /// stalls extend the window. Nothing is aborted.
  void stall(SimTime duration);

  /// Straggler knob: scales the service time of every request that
  /// *starts* service from now on. 1.0 = nominal; >1 = degraded.
  void setServiceMultiplier(double multiplier);
  [[nodiscard]] double serviceMultiplier() const {
    return service_multiplier_;
  }

  /// Observer fired once per failStop() before the per-request aborts
  /// (monitoring / metadata-availability path).
  void setFailureListener(FailureListener listener) {
    failure_listener_ = std::move(listener);
  }

  /// Attaches a tracer (null = tracing off, the default). When set, every
  /// completed request emits its queue-wait/overhead/seek/rotate/transfer
  /// spans and every fault verb emits a fault.* event.
  void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Decomposed service time of one request. `total` is accumulated in
  /// the exact term order the model always used, so enabling the
  /// decomposition cannot perturb a single timestamp; the component
  /// fields regroup the same terms for the trace.
  struct ServiceParts {
    SimTime overhead = 0.0;  // command overhead + track switches
    SimTime seek = 0.0;
    SimTime rotate = 0.0;
    SimTime transfer = 0.0;
    SimTime total = 0.0;
  };

  struct Request {
    /// The submitted runs after reposition_first/max_bytes.
    std::vector<Extent> extents;
    CompletionFn done;
    FailureFn on_failed;
    StreamId stream = 0;
    double media_rate = 0.0;
    double seek_scale = 1.0;
    Bytes bytes = 0;
    Priority priority = Priority::kForeground;
    RequestState state = RequestState::kPending;
    /// Trace bookkeeping (only maintained while a tracer is attached).
    SimTime submitted = 0.0;
    SimTime service_start = 0.0;
    ServiceParts parts;

    /// Slab release: drops the callbacks, keeps the run vector's
    /// capacity for the slot's next request.
    void recycle() {
      extents.clear();
      done = nullptr;
      on_failed = nullptr;
    }
  };
  using Handle = sim::SlabHandle<Request>;

  /// A RequestId is the request's slab handle (slot and generation).
  [[nodiscard]] Request* resolve(RequestId id) {
    return requests_.get(Handle{id});
  }
  [[nodiscard]] const Request* resolve(RequestId id) const {
    return requests_.get(Handle{id});
  }
  [[nodiscard]] Request& request(RequestId id) { return requests_[Handle{id}]; }
  void release(RequestId id) { requests_.release(Handle{id}); }
  /// Marks `id` aborted and schedules its failure notification now.
  /// Aborts one request, appending its failure notification to `aborts`
  /// (failStop() schedules the whole storm in one batch).
  void abortRequest(RequestId id,
                    std::vector<sim::Engine::BatchEvent>& aborts);

  void serveNext();
  /// Pops the next live request id from `queue`, discarding cancelled and
  /// stale entries; returns kInvalidRequest when the queue empties.
  RequestId popLive(std::deque<RequestId>& queue);

  using StreamQueues = std::unordered_map<StreamId, std::deque<RequestId>>;
  /// The foreground queue of `stream`, made from a spare if it has none.
  std::deque<RequestId>& streamQueue(StreamId stream);
  /// Removes a stream's queue (emptying it), keeping its storage spare.
  void retireQueue(StreamQueues::iterator it);
  void startService(RequestId id);
  /// (Re)schedules the in-service completion event at `service_end_`.
  void scheduleCompletion();
  [[nodiscard]] ServiceParts serviceParts(const Request& r);
  /// Emits the per-stage spans of a request that just completed.
  void traceCompletion(const Request& r, RequestId id);

  sim::Engine* engine_;
  DiskParams params_;
  Rng rng_;
  std::uint32_t id_;
  sim::Slab<Request> requests_;
  bool failed_ = false;
  sim::EventId completion_event_{};
  std::deque<RequestId> bg_queue_;
  StreamQueues fg_queues_;
  /// Retired stream queues, map node and deque storage intact: a queue
  /// that drains and refills every block (a depth-2 write pipeline) then
  /// allocates nothing. Never more than the most streams queued at once.
  std::vector<StreamQueues::node_type> spare_queues_;
  std::deque<StreamId> fg_rotation_;  // streams with queued work, RR order
  RequestId in_service_ = kInvalidRequest;
  /// Absolute completion time of the in-service request (stall-adjusted).
  SimTime service_end_ = 0.0;
  SimTime stalled_until_ = 0.0;
  double service_multiplier_ = 1.0;
  StreamId last_stream_ = ~StreamId{0};
  bool has_served_ = false;
  Bytes bytes_served_[2] = {0, 0};
  SimTime busy_time_[2] = {0.0, 0.0};
  FailureListener failure_listener_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace robustore::disk
