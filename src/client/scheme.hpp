#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "client/cluster.hpp"
#include "coding/lt_graph.hpp"
#include "client/stored_file.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "metrics/metrics.hpp"
#include "sim/slab.hpp"
#include "sim/small_fn.hpp"

namespace robustore::client {

/// The four storage schemes of §6.2.1.
enum class SchemeKind : std::uint8_t {
  kRaid0,      // plain striping, no redundancy, parallel read-all
  kRRaidS,     // rotated replication + speculative access
  kRRaidA,     // rotated replication + adaptive multi-round access
  kRobuStore,  // LT-coded redundancy + speculative access
};

/// The §6.2.1 roster in report order.
inline constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kRaid0, SchemeKind::kRRaidS, SchemeKind::kRRaidA,
    SchemeKind::kRobuStore};

[[nodiscard]] const char* schemeName(SchemeKind kind);

/// Per-access knobs shared by every scheme.
struct AccessConfig {
  Bytes block_bytes = 1 * kMiB;
  /// Original block count K; data size = k * block_bytes (1 GB baseline).
  std::uint32_t k = 1024;
  /// Degree of data redundancy D = N/K - 1 (3x baseline). RAID-0 always
  /// stores exactly 1x. Replicated schemes round to whole copies.
  double redundancy = 3.0;
  /// Metadata-server / connection-setup cost charged once per access.
  SimTime metadata_latency = 5.0 * kMilliseconds;
  /// Client LT decode rate in bytes/s; the pipeline hides all but the last
  /// block (§6.2.5: 500 MBps, i.e. +2 ms for a 1 MB block).
  double decode_rate = mbps(500.0);
  /// Safety horizon: an access not completed after this much simulated
  /// time is reported incomplete (guards dead-disk scenarios).
  SimTime timeout = 3600.0;
  /// Per-request watchdog: a tracked block read not delivered within this
  /// window is cancelled and re-issued (counts against max_reissues).
  /// 0 disables the watchdog; disk-failure notifications still trigger
  /// immediate re-issue regardless.
  SimTime request_timeout = 0.0;
  /// How many times one block read may be re-issued after its first
  /// attempt is lost to a failure (or a watchdog expiry) before the
  /// scheme is told the block is unrecoverable.
  std::uint32_t max_reissues = 2;
  /// Base delay before a failure-triggered re-issue (lets crash-recover
  /// windows pass) ...
  SimTime reissue_delay = 10.0 * kMilliseconds;
  /// ... growing by this factor per successive attempt (backoff) ...
  double reissue_backoff = 2.0;
  /// ... but never beyond this cap. Over churn horizons, attempt counts
  /// get large enough that an unclamped exponential overshoots the whole
  /// outage (or overflows to inf); the cap keeps retries meaningful.
  SimTime max_reissue_delay = 10.0;
  /// Heal-on-read: a degraded read that still decodes writes fresh
  /// blocks for the lost placements back to healthy disks before the
  /// access settles, so one disk's loss is repaired for free by the
  /// next reader. Off by default (pure-paper access paths).
  bool heal_on_read = false;

  [[nodiscard]] Bytes dataBytes() const {
    return static_cast<Bytes>(k) * block_bytes;
  }
  [[nodiscard]] std::uint32_t replicaCount() const;
  [[nodiscard]] std::uint32_t codedBlockCount() const;
};

/// Base class for storage schemes: owns the common access lifecycle
/// (metadata latency, background workload start, engine run, request
/// cancellation, drain, metric extraction) while subclasses provide the
/// scheme-specific block placement and request logic.
///
/// A Scheme instance runs one access at a time against its Cluster; the
/// experiment harness calls read()/write() once per trial.
class Scheme {
 public:
  explicit Scheme(Cluster& cluster) : cluster_(&cluster) {}
  virtual ~Scheme() = default;

  Scheme(const Scheme&) = delete;
  Scheme& operator=(const Scheme&) = delete;

  [[nodiscard]] virtual SchemeKind kind() const = 0;
  [[nodiscard]] const char* name() const { return schemeName(kind()); }

  /// Synthesizes the on-disk state of a previously written file with
  /// balanced striping across `disks` (the §6.3.1 read experiments start
  /// from such a state without simulating the write).
  [[nodiscard]] virtual StoredFile planFile(const AccessConfig& config,
                                            std::span<const std::uint32_t> disks,
                                            const LayoutPolicy& policy,
                                            Rng& rng) = 0;

  /// Simulates one full read access; runs the simulation engine until the
  /// access completes (or times out) and the system drains.
  [[nodiscard]] metrics::AccessMetrics read(StoredFile& file,
                                            const AccessConfig& config);

  /// Simulates one full write access; `out` (optional) receives the
  /// resulting file state, including any unbalanced striping a
  /// speculative writer produced.
  [[nodiscard]] metrics::AccessMetrics write(const AccessConfig& config,
                                             std::span<const std::uint32_t> disks,
                                             const LayoutPolicy& policy,
                                             Rng& rng,
                                             StoredFile* out = nullptr);

  struct TrackedRead;
  using TrackedHandle = sim::SlabHandle<TrackedRead>;

  /// Mutable state of the access in flight; subclasses update the
  /// counters from their delivery callbacks and call finish() exactly
  /// once. Public so multi-client drivers can own several sessions on a
  /// shared simulation engine.
  struct Session {
    disk::StreamId stream = 0;
    SimTime start = 0.0;
    SimTime finish_time = 0.0;
    bool complete = false;
    /// The access can no longer complete (every path to some required
    /// data is dead). Set by fail() — the early-exit counterpart of the
    /// global timeout — and by settle() on timeout, so late callbacks
    /// no-op during the drain.
    bool failed = false;
    std::uint32_t blocks_received = 0;
    std::uint32_t cache_hits = 0;
    /// Extra latency charged after the last arrival (decode tail).
    SimTime extra_latency = 0.0;
    /// Degraded-mode ledger: disk-failure notifications received,
    /// re-issued block requests, and time spent on attempts that were
    /// lost to failures or watchdog expiries.
    std::uint32_t failures_observed = 0;
    std::uint32_t reissued_requests = 0;
    SimTime time_lost_to_failures = 0.0;
    /// Deliveries rejected by the client-side checksum (block corruption):
    /// each one settled its tracked read as a loss without a re-issue,
    /// since re-reading the same damaged copy cannot help.
    std::uint32_t corrupt_rejected = 0;
    /// Tracked block reads not yet delivered, lost, or cancelled. When it
    /// hits zero with the access neither complete nor finishable, the
    /// access fails fast instead of waiting out the global timeout.
    std::uint32_t live_requests = 0;
    /// Completion hook for asynchronous (multi-client) use. When unset,
    /// finish() stops the engine so the synchronous read()/write()
    /// wrappers return. Also invoked on fail() — check session.complete.
    std::function<void()> on_complete;
    /// Servers this access has issued requests to, each paired with the
    /// stream's server-side network-byte counter at first touch. Keeps
    /// access completion O(disks touched) rather than O(cluster size):
    /// cancelOutstanding() and collect() visit only these servers, and
    /// the byte base scopes the network ledger to this access when a
    /// campaign reuses one stream id across a client's accesses.
    std::vector<std::pair<std::uint32_t, Bytes>> servers_used;
    /// The tracked reads of this access still live (a read leaves when
    /// it settles). abortRead() walks this to quiesce the access
    /// deterministically at a run deadline.
    std::vector<TrackedHandle> tracked_reads;
  };

  /// One failure-aware block read: the scheme's unit of re-issue. The
  /// base class re-issues the same placement on failure/watchdog expiry
  /// (which is what rides out crash-recover windows) up to
  /// AccessConfig::max_reissues times with backoff; when the attempts are
  /// exhausted the scheme's on_lost hook decides what the loss means —
  /// fatal (RAID-0), ignorable (coded/replicated redundancy), or
  /// re-routable (RRAID-A re-dispatches to another replica).
  ///
  /// Tracked reads live in a per-scheme slab from issue until they settle
  /// (delivered, lost, or cancelled); settling releases the record and
  /// its callbacks. Server callbacks and timer events hold only the
  /// generation-tagged handle, so whatever fires after the read settled
  /// (a second attempt landing, a cancelled in-service read delivering)
  /// resolves to nothing.
  struct TrackedRead {
    /// Captures up to 64 bytes stay inline: the schemes' callbacks hold
    /// `this`, a shared state pointer and a few references and indices.
    using DeliveryFn = sim::SmallFn<void(bool cache_hit), 64>;
    using LostFn = sim::SmallFn<void(), 64>;

    Session* session = nullptr;
    const AccessConfig* config = nullptr;
    StoredFile* file = nullptr;
    std::uint32_t placement = 0;
    std::uint32_t stored_pos = 0;
    std::uint32_t attempts = 0;
    /// Position in session->tracked_reads.
    std::uint32_t live_index = 0;
    bool force_position = false;
    SimTime attempt_start = 0.0;
    server::StorageServer::ReadHandle handle;
    sim::EventId watchdog{};
    sim::EventId retry{};
    DeliveryFn on_delivered;
    LostFn on_lost;
  };

  /// Asynchronous entry point: issues the access on the shared engine
  /// without running it. The caller owns session/file/config lifetimes
  /// until the engine drains, starts any background load itself, and is
  /// notified through session.on_complete.
  void beginRead(Session& session, StoredFile& file,
                 const AccessConfig& config);

  /// Cancels whatever the access still has queued across the cluster;
  /// multi-client drivers call this from on_complete so a finished client
  /// stops competing for disk time.
  void cancelOutstanding(const Session& session);

  /// Deadline-truncation quiesce: settles every live tracked read
  /// (cancelling its watchdog, pending retry, and queued disk work) and,
  /// if the access has not finished, marks it failed WITHOUT firing
  /// on_complete — ending the run is the driver's decision, not an access
  /// outcome its completion logic should react to. After this returns the
  /// session has no live requests and no retry/watchdog event can fire
  /// for it; the only work left referencing it is in-service disk I/O,
  /// which drains as pure byte accounting. Safe (and useful) on finished
  /// sessions too: it releases their leftover speculative-tail events so
  /// a post-deadline drain doesn't run out to far-future watchdogs.
  void abortRead(Session& session);

  /// Tracked reads not yet settled, across every session of this scheme
  /// (zero once the engine has drained).
  [[nodiscard]] std::size_t liveTrackedReads() const {
    return tracked_.live();
  }

  /// Quiescence ledger, audited under ROBUSTORE_CHECKED (a no-op
  /// otherwise) once a driver has drained the engine: no server holds a
  /// read or write record, no disk a request slot, and this scheme no
  /// tracked read. A record that outlives its request pins its callbacks
  /// and grows the slabs without bound.
  void auditDrained();

  /// Extracts the paper metrics from a finished (or timed-out) session.
  /// Byte accounting is only final after in-flight work drained.
  [[nodiscard]] metrics::AccessMetrics collect(const Session& session,
                                               Bytes data_bytes,
                                               std::uint32_t k) const;

  /// The session of the access currently driven through the synchronous
  /// read()/write() wrappers, or null between accesses. Observation hook
  /// for the telemetry sampler (live request count, block arrivals);
  /// multi-client drivers own their sessions and are not reflected here.
  [[nodiscard]] const Session* activeSession() const {
    return active_session_;
  }

  /// Decoder state of the access in flight, for schemes that decode
  /// (RobuSTore's LT/Raptor read path). Read-only telemetry view.
  struct DecoderProgress {
    /// Distinct coded symbols the decoder accepted.
    std::uint32_t received = 0;
    /// Original block count K the reconstruction needs.
    std::uint32_t needed = 0;
    /// Originals recovered so far.
    std::uint32_t ready = 0;
    /// Received symbols not (yet) resolved into an original — buffered
    /// redundancy waiting for the ripple.
    std::uint32_t buffered = 0;
  };
  [[nodiscard]] virtual std::optional<DecoderProgress> decoderProgress()
      const {
    return std::nullopt;
  }

 protected:

  /// Issues the scheme's initial read requests. Called `metadata_latency`
  /// after the access starts.
  virtual void startRead(Session& session, StoredFile& file,
                         const AccessConfig& config) = 0;

  /// Issues the scheme's write traffic and fills `out.placements` as
  /// commits land.
  virtual void startWrite(Session& session, const AccessConfig& config,
                          std::span<const std::uint32_t> disks,
                          const LayoutPolicy& policy, Rng& rng,
                          StoredFile& out) = 0;

  /// Marks the access complete and stops the engine run loop. No-op on a
  /// session that already failed (a drain-time completion cannot
  /// resurrect a failed access).
  void finish(Session& session);

  /// Marks the access unable to complete and stops the engine run loop
  /// (or fires on_complete) — the fail-fast counterpart of the global
  /// timeout. Idempotent; no-op once complete.
  void fail(Session& session);

  /// Issues one stored-block read; wraps cache keys and placement lookup.
  server::StorageServer::ReadHandle issueBlockRead(
      Session& session, StoredFile& file, std::uint32_t placement,
      std::uint32_t stored_pos, bool force_position,
      server::StorageServer::DeliveryFn on_delivered,
      server::StorageServer::FailureFn on_failed = nullptr);

  /// Issues a failure-aware block read (see TrackedRead). `on_delivered`
  /// fires at most once, on the attempt that succeeds; `on_lost` fires at
  /// most once, when max_reissues attempts are exhausted. When the last
  /// live tracked read settles without the access being complete, the
  /// session fails fast. `session`, `file` and `config` must outlive the
  /// read.
  TrackedHandle issueTrackedRead(Session& session, StoredFile& file,
                                 std::uint32_t placement,
                                 std::uint32_t stored_pos,
                                 bool force_position,
                                 const AccessConfig& config,
                                 TrackedRead::DeliveryFn on_delivered,
                                 TrackedRead::LostFn on_lost = nullptr);

  /// Cancels a tracked read (watchdog, pending retry, queued disk work);
  /// no-op once it settled. Does NOT run the fail-fast check: callers
  /// that re-target a block (RRAID-A stealing) cancel and re-issue in one
  /// step.
  void cancelTracked(Session& session, TrackedHandle tracked);

  /// Records the disk's server in `session.servers_used` (first touch
  /// snapshots the stream's byte counter). Every site that hands the
  /// session's stream to a server MUST call this first, or completion
  /// misses that server's queued requests and bytes.
  void noteServerUsed(Session& session, std::uint32_t global_disk);

  /// Heal-on-read support (AccessConfig::heal_on_read): appends a fresh
  /// copy of `block_id` to `placement`'s on-disk layout and writes it on
  /// the dedicated heal stream (so cancelOutstanding never cancels heal
  /// traffic; the post-access drain commits it). The stored-id ledger is
  /// updated when the commit ack lands — per-disk per-stream acks are
  /// FIFO, so ledger order matches layout-position order. A heal write
  /// that dies with its target disk is dropped: that placement is down
  /// anyway and a later repair pass owns it.
  void issueHealWrite(StoredFile& file, std::uint32_t placement,
                      std::uint64_t block_id);

  [[nodiscard]] Cluster& cluster() { return *cluster_; }
  [[nodiscard]] sim::Engine& engine() { return cluster_->engine(); }
  /// The cluster's tracer, or null when tracing is off — schemes guard
  /// every trace emission on this single pointer test.
  [[nodiscard]] trace::Tracer* tracer() { return cluster_->tracer(); }
  /// The flight recorder riding on the tracer (possibly with the tracer
  /// itself disabled — the always-on recorder mode), or null.
  [[nodiscard]] trace::FlightRecorder* flightRecorder() {
    trace::Tracer* t = cluster_->tracer();
    return t != nullptr ? t->sink() : nullptr;
  }

 private:
  metrics::AccessMetrics settle(Session& session, Bytes data_bytes,
                                std::uint32_t k);
  /// Issues (or re-issues) the underlying block read of a tracked read.
  void issueTrackedAttempt(TrackedHandle tracked);
  /// An attempt's block arrived: settles the read and hands the block to
  /// the scheme (or, if its checksum fails, reports it lost).
  void onTrackedDelivered(TrackedHandle tracked, bool cache_hit);
  /// Watchdog expiry: cancel the attempt and re-issue, unless the block
  /// already left the disk.
  void onTrackedWatchdog(TrackedHandle tracked);
  /// Handles a lost attempt (disk failure or watchdog expiry): re-issue
  /// with backoff, or settle the read and fire on_lost.
  void onTrackedAttemptLost(TrackedHandle tracked, bool from_watchdog);
  /// Cancels the read's timer events, drops it from its session's live
  /// list and releases its record (callbacks included).
  void settleTracked(TrackedHandle tracked);
  /// Fails the session if nothing live can still complete it.
  void checkFailFast(Session& session);

  Cluster* cluster_;
  sim::Slab<TrackedRead> tracked_;
  /// Synchronous-access observation pointer (see activeSession()): set
  /// for the duration of read()/write() including the post-access drain,
  /// cleared before they return.
  const Session* active_session_ = nullptr;
  /// Heal-on-read state, armed by beginRead() only when the access
  /// config enables healing (the stream draw must not shift stream ids
  /// of non-healing runs).
  disk::StreamId heal_stream_ = 0;
  Rng heal_rng_;
};

/// Which rateless code backs the RobuSTore data plane. LT is the paper's
/// choice; Raptor implements the §7.3 future-work direction ("more
/// efficient erasure codes") with a sparser inner graph.
enum class CodecKind : std::uint8_t { kLt, kRaptor };

/// Builds a scheme of the given kind against `cluster` (the §6.2.1
/// roster). `lt` and `codec` only affect RobuSTore. This is the single
/// scheme factory; every layer (experiments, benches, tools, tests)
/// constructs schemes through it.
[[nodiscard]] std::unique_ptr<Scheme> makeScheme(
    SchemeKind kind, Cluster& cluster, const coding::LtParams& lt,
    CodecKind codec = CodecKind::kLt);

}  // namespace robustore::client
