#include "client/scheme.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "client/raid0.hpp"
#include "client/robustore_scheme.hpp"
#include "client/rraid.hpp"
#include "common/expects.hpp"
#include "trace/flight_recorder.hpp"

namespace robustore::client {

const char* schemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kRaid0:
      return "RAID-0";
    case SchemeKind::kRRaidS:
      return "RRAID-S";
    case SchemeKind::kRRaidA:
      return "RRAID-A";
    case SchemeKind::kRobuStore:
      return "RobuSTore";
  }
  return "?";
}

std::uint32_t AccessConfig::replicaCount() const {
  const auto copies = static_cast<std::uint32_t>(std::llround(redundancy)) + 1;
  return copies < 1 ? 1 : copies;
}

std::uint32_t AccessConfig::codedBlockCount() const {
  const auto n = static_cast<std::uint32_t>(
      std::llround((1.0 + redundancy) * static_cast<double>(k)));
  return n < k ? k : n;
}

void Scheme::finish(Session& session) {
  if (session.failed) return;  // a drain-time arrival cannot resurrect it
  ROBUSTORE_EXPECTS(!session.complete, "access finished twice");
  session.complete = true;
  session.finish_time = engine().now();
  if (auto* t = tracer(); t != nullptr && session.extra_latency > 0.0) {
    // The decode tail the pipeline cannot hide (§6.2.5): charged after
    // the last arrival.
    t->span(trace::Stage::kClientDecode, session.finish_time,
            session.finish_time + session.extra_latency, session.stream,
            trace::kClientTrack);
  }
  if (auto* fr = flightRecorder(); fr != nullptr) {
    // After the decode span so the ring sees the full access.
    fr->endAccess(session.stream,
                  session.finish_time + session.extra_latency,
                  /*complete=*/true);
  }
  if (session.on_complete) {
    session.on_complete();
  } else {
    engine().stop();
  }
}

void Scheme::fail(Session& session) {
  if (session.complete || session.failed) return;
  session.failed = true;
  session.finish_time = engine().now();
  if (auto* t = tracer(); t != nullptr) {
    t->instant("client.access_failed", session.finish_time, session.stream,
               trace::kClientTrack);
  }
  if (auto* fr = flightRecorder(); fr != nullptr) {
    fr->endAccess(session.stream, session.finish_time, /*complete=*/false);
  }
  if (session.on_complete) {
    session.on_complete();
  } else {
    engine().stop();
  }
}

void Scheme::checkFailFast(Session& session) {
  if (!session.complete && !session.failed && session.live_requests == 0) {
    fail(session);
  }
}

void Scheme::beginRead(Session& session, StoredFile& file,
                       const AccessConfig& config) {
  ROBUSTORE_EXPECTS(!file.placements.empty(), "read of an unplaced file");
  if (session.stream == 0) session.stream = cluster_->nextStream();
  if (config.heal_on_read) {
    // Stream + rng drawn only when healing is on: a non-healing run must
    // see exactly the stream-id sequence it always did.
    heal_stream_ = cluster_->nextStream();
    heal_rng_ = streamRng(file.file_id, 0x48EA0);
  }
  session.start = engine().now();
  if (auto* fr = flightRecorder(); fr != nullptr) {
    // Heal/repair streams never open a ring, so their spans are ignored
    // by the recorder's stream filter.
    fr->beginAccess(session.stream, session.start);
  }
  engine().schedule(config.metadata_latency,
                    [this, &session, &file, &config] {
                      startRead(session, file, config);
                    });
}

void Scheme::issueHealWrite(StoredFile& file, std::uint32_t placement,
                            std::uint64_t block_id) {
  DiskPlacement& p = file.placements[placement];
  // Issue position comes from the layout, not the stored ledger: with
  // several heal writes in flight the ledger trails the layout by the
  // in-flight count, and acks (FIFO per stream+disk) fill it in order.
  const std::uint32_t pos = p.layout.numBlocks();
  p.layout.extendTo(pos + 1, heal_rng_);
  server::StorageServer& srv = cluster_->serverOfDisk(p.global_disk);
  server::StorageServer::BlockWrite req;
  req.stream = heal_stream_;
  req.cache_key = file.cacheKey(placement, pos);
  req.disk_index = cluster_->localDiskIndex(p.global_disk);
  req.layout = &p.layout;
  req.layout_block = pos;
  srv.writeBlock(req, [&file, placement, block_id] {
    // Commit ack: the copy is durable, record it. Acks on one stream to
    // one disk are FIFO, so stored order tracks layout-position order
    // even with several heal writes in flight.
    file.placements[placement].stored.push_back(block_id);
  });
  // No failure handler: if the target dies mid-heal the layout slot stays
  // unrecorded and a later heal/repair writes over it.
}

void Scheme::noteServerUsed(Session& session, std::uint32_t global_disk) {
  const std::uint32_t server = cluster_->serverIndexOfDisk(global_disk);
  for (const auto& [s, base] : session.servers_used) {
    if (s == server) return;
  }
  session.servers_used.emplace_back(
      server, cluster_->server(server).networkBytes(session.stream));
}

void Scheme::cancelOutstanding(const Session& session) {
  // Only servers this access issued to can hold queued requests for its
  // stream — O(disks touched) per completion, not O(cluster size). At
  // campaign scale (10^3 servers x 10^6 accesses) the full-cluster loop
  // dominated the entire run.
  for (const auto& [s, base] : session.servers_used) {
    cluster_->server(s).cancelStream(session.stream);
  }
}

void Scheme::abortRead(Session& session) {
  if (!session.complete && !session.failed) {
    // Failed-without-on_complete: late callbacks no-op during the drain,
    // and the driver that called us already knows the run is over.
    session.failed = true;
    session.finish_time = engine().now();
    if (auto* t = tracer(); t != nullptr) {
      t->instant("client.access_aborted", session.finish_time, session.stream,
                 trace::kClientTrack);
    }
    if (auto* fr = flightRecorder(); fr != nullptr) {
      fr->endAccess(session.stream, session.finish_time, /*complete=*/false);
    }
  }
  // Each cancel settles the read, which drops it from the list.
  while (!session.tracked_reads.empty()) {
    cancelTracked(session, session.tracked_reads.back());
  }
  cancelOutstanding(session);
  ROBUSTORE_EXPECTS(session.live_requests == 0,
                    "aborted session still has live requests");
}

metrics::AccessMetrics Scheme::collect(const Session& session,
                                       Bytes data_bytes,
                                       std::uint32_t k) const {
  metrics::AccessMetrics m;
  m.complete = session.complete;
  m.latency = session.complete
                  ? session.finish_time - session.start + session.extra_latency
                  : 0.0;
  m.data_bytes = data_bytes;
  // Sum over touched servers only, net of the first-touch base: for a
  // fresh stream this equals the whole-cluster sum; for a campaign
  // client reusing its stream it scopes the ledger to this access.
  Bytes network = 0;
  for (const auto& [s, base] : session.servers_used) {
    network += cluster_->server(s).networkBytes(session.stream) - base;
  }
  m.network_bytes = network;
  m.blocks_received = session.blocks_received;
  m.blocks_original = k;
  m.cache_hits = session.cache_hits;
  m.failures_survived = session.failures_observed;
  m.reissued_requests = session.reissued_requests;
  m.time_lost_to_failures = session.time_lost_to_failures;
  // The one per-access stage source: the recorder riding on the tracer
  // (O(1), and scoped to the latest access when a stream id is reused).
  const trace::Tracer* t = cluster_->tracer();
  if (const trace::FlightRecorder* fr = t != nullptr ? t->sink() : nullptr;
      fr != nullptr) {
    if (const auto* b = fr->lastBreakdown(session.stream); b != nullptr) {
      m.stages = *b;
    }
  }
  return m;
}

server::StorageServer::ReadHandle Scheme::issueBlockRead(
    Session& session, StoredFile& file, std::uint32_t placement,
    std::uint32_t stored_pos, bool force_position,
    server::StorageServer::DeliveryFn on_delivered,
    server::StorageServer::FailureFn on_failed) {
  const DiskPlacement& p = file.placements[placement];
  noteServerUsed(session, p.global_disk);
  server::StorageServer& srv = cluster_->serverOfDisk(p.global_disk);
  server::StorageServer::BlockRead req;
  req.stream = session.stream;
  req.cache_key = file.cacheKey(placement, stored_pos);
  req.disk_index = cluster_->localDiskIndex(p.global_disk);
  req.layout = &p.layout;
  req.layout_block = stored_pos;
  req.force_position_first = force_position;
  return srv.readBlock(req, std::move(on_delivered), std::move(on_failed));
}

Scheme::TrackedHandle Scheme::issueTrackedRead(
    Session& session, StoredFile& file, std::uint32_t placement,
    std::uint32_t stored_pos, bool force_position, const AccessConfig& config,
    TrackedRead::DeliveryFn on_delivered, TrackedRead::LostFn on_lost) {
  const TrackedHandle th = tracked_.acquire();
  TrackedRead& tracked = tracked_[th];
  tracked.session = &session;
  tracked.config = &config;
  tracked.file = &file;
  tracked.placement = placement;
  tracked.stored_pos = stored_pos;
  tracked.force_position = force_position;
  tracked.live_index = static_cast<std::uint32_t>(session.tracked_reads.size());
  tracked.on_delivered = std::move(on_delivered);
  tracked.on_lost = std::move(on_lost);
  ++session.live_requests;
  session.tracked_reads.push_back(th);
  issueTrackedAttempt(th);
  return th;
}

void Scheme::issueTrackedAttempt(TrackedHandle th) {
  TrackedRead& tracked = tracked_[th];
  ++tracked.attempts;
  tracked.attempt_start = engine().now();
  tracked.handle = issueBlockRead(
      *tracked.session, *tracked.file, tracked.placement, tracked.stored_pos,
      tracked.force_position,
      [this, th](bool cache_hit) { onTrackedDelivered(th, cache_hit); },
      [this, th] {
        if (tracked_.get(th) == nullptr) return;  // settled
        onTrackedAttemptLost(th, /*from_watchdog=*/false);
      });
  if (tracked.config->request_timeout > 0.0) {
    tracked.watchdog = engine().schedule(tracked.config->request_timeout,
                                         [this, th] { onTrackedWatchdog(th); });
  }
}

void Scheme::onTrackedDelivered(TrackedHandle th, bool cache_hit) {
  TrackedRead* tracked = tracked_.get(th);
  if (tracked == nullptr) return;  // settled: another attempt won
  // Everything the scheme needs is moved out before the settle releases
  // the record: the callbacks may issue new reads into the slab.
  Session& session = *tracked->session;
  const StoredFile& file = *tracked->file;
  const std::uint32_t placement = tracked->placement;
  const std::uint32_t stored_pos = tracked->stored_pos;
  TrackedRead::DeliveryFn on_delivered = std::move(tracked->on_delivered);
  TrackedRead::LostFn on_lost = std::move(tracked->on_lost);
  settleTracked(th);
  // Arrivals after completion (or during a failed access's drain) stay
  // pure byte accounting; the scheme never sees them.
  if (session.complete || session.failed) return;
  if (file.isCorrupt(placement, stored_pos)) {
    // Checksum mismatch: the payload arrived but is unusable, and
    // re-reading the same damaged copy (or its cache line) would deliver
    // the same bytes — so the read is lost outright, and the scheme's
    // on_lost hook decides what the loss means (redundancy, re-dispatch
    // to another replica, heal).
    ++session.corrupt_rejected;
    if (auto* t = tracer(); t != nullptr) {
      t->instant("client.block_corrupt", engine().now(), session.stream,
                 trace::kClientTrack, file.placements[placement].global_disk,
                 stored_pos);
    }
    if (on_lost) on_lost();
    checkFailFast(session);
    return;
  }
  if (on_delivered) on_delivered(cache_hit);
  checkFailFast(session);
}

void Scheme::onTrackedWatchdog(TrackedHandle th) {
  TrackedRead* tracked = tracked_.get(th);
  if (tracked == nullptr) return;
  tracked->watchdog = {};
  const Session& session = *tracked->session;
  if (session.complete || session.failed) return;
  // If the block already left the disk it will arrive shortly: cancelling
  // is impossible, so re-issuing buys nothing.
  server::StorageServer& srv = cluster_->serverOfDisk(
      tracked->file->placements[tracked->placement].global_disk);
  if (!srv.cancelRead(tracked->handle)) return;
  onTrackedAttemptLost(th, /*from_watchdog=*/true);
}

void Scheme::onTrackedAttemptLost(TrackedHandle th, bool from_watchdog) {
  TrackedRead& tracked = tracked_[th];
  Session& session = *tracked.session;
  const AccessConfig& config = *tracked.config;
  if (session.complete || session.failed) {
    settleTracked(th);
    return;
  }
  if (!from_watchdog) ++session.failures_observed;
  session.time_lost_to_failures += engine().now() - tracked.attempt_start;
  if (tracked.watchdog.valid()) {
    engine().cancel(tracked.watchdog);
    tracked.watchdog = {};
  }
  const std::uint32_t global_disk =
      tracked.file->placements[tracked.placement].global_disk;
  const std::uint32_t stored_pos = tracked.stored_pos;
  if (tracked.attempts > config.max_reissues) {
    TrackedRead::LostFn on_lost = std::move(tracked.on_lost);
    settleTracked(th);
    if (auto* t = tracer(); t != nullptr) {
      t->instant("client.block_lost", engine().now(), session.stream,
                 trace::kClientTrack, global_disk, stored_pos);
    }
    if (on_lost) on_lost();
    checkFailFast(session);
    return;
  }
  ++session.reissued_requests;
  // A re-issue never continues the old head position.
  tracked.force_position = true;
  // Watchdog expiries retry at once (the disk is slow, not dead); failure
  // notifications back off so a crash-recover window can pass — capped,
  // because over churn horizons the exponential otherwise outgrows every
  // outage (and eventually the double range).
  const SimTime delay =
      from_watchdog ? 0.0
                    : std::min(config.reissue_delay *
                                   std::pow(config.reissue_backoff,
                                            static_cast<double>(
                                                tracked.attempts - 1)),
                               config.max_reissue_delay);
  if (auto* t = tracer(); t != nullptr) {
    t->span(trace::Stage::kClientReissue, engine().now(),
            engine().now() + delay, session.stream, trace::kClientTrack,
            global_disk, stored_pos);
  }
  tracked.retry = engine().schedule(delay, [this, th] {
    TrackedRead* retrying = tracked_.get(th);
    if (retrying == nullptr) return;
    retrying->retry = {};
    const Session& s = *retrying->session;
    if (s.complete || s.failed) {
      // The access ended during the backoff: no attempt is in flight, so
      // nothing else would ever settle this read.
      settleTracked(th);
      return;
    }
    issueTrackedAttempt(th);
  });
}

void Scheme::settleTracked(TrackedHandle th) {
  TrackedRead& tracked = tracked_[th];
  if (tracked.watchdog.valid()) {
    engine().cancel(tracked.watchdog);
    tracked.watchdog = {};
  }
  if (tracked.retry.valid()) {
    engine().cancel(tracked.retry);
    tracked.retry = {};
  }
  Session& session = *tracked.session;
  ROBUSTORE_EXPECTS(session.live_requests > 0, "tracked read settled twice");
  --session.live_requests;
  ROBUSTORE_CHECKED_EXPECTS(!tracked.watchdog.valid() && !tracked.retry.valid(),
                            "settled read left a timer event armed");
  const TrackedHandle last = session.tracked_reads.back();
  session.tracked_reads[tracked.live_index] = last;
  tracked_[last].live_index = tracked.live_index;
  session.tracked_reads.pop_back();
  tracked_.release(th);
}

void Scheme::cancelTracked(Session& session, TrackedHandle th) {
  const TrackedRead* tracked = tracked_.get(th);
  if (tracked == nullptr) return;  // settled already
  ROBUSTORE_EXPECTS(tracked->session == &session,
                    "tracked read cancelled through another session");
  const server::StorageServer::ReadHandle handle = tracked->handle;
  server::StorageServer& srv = cluster_->serverOfDisk(
      tracked->file->placements[tracked->placement].global_disk);
  settleTracked(th);
  if (handle.valid()) srv.cancelRead(handle);
}

metrics::AccessMetrics Scheme::read(StoredFile& file,
                                    const AccessConfig& config) {
  Session session;
  active_session_ = &session;
  cluster_->startBackground();
  beginRead(session, file, config);
  engine().runUntil(session.start + config.timeout);
  return settle(session, file.dataBytes(), file.k);
}

metrics::AccessMetrics Scheme::write(const AccessConfig& config,
                                     std::span<const std::uint32_t> disks,
                                     const LayoutPolicy& policy, Rng& rng,
                                     StoredFile* out) {
  ROBUSTORE_EXPECTS(!disks.empty(), "write needs at least one disk");
  Session session;
  active_session_ = &session;
  session.stream = cluster_->nextStream();
  cluster_->startBackground();
  session.start = engine().now();
  if (auto* fr = flightRecorder(); fr != nullptr) {
    fr->beginAccess(session.stream, session.start);
  }

  StoredFile file;
  file.file_id = cluster_->nextFileId();
  file.block_bytes = config.block_bytes;
  file.k = config.k;

  engine().schedule(config.metadata_latency, [this, &session, &config, disks,
                                              &policy, &rng, &file] {
    startWrite(session, config, disks, policy, rng, file);
  });
  engine().runUntil(session.start + config.timeout);
  metrics::AccessMetrics m = settle(session, file.dataBytes(), file.k);
  if (out != nullptr) *out = std::move(file);
  return m;
}

metrics::AccessMetrics Scheme::settle(Session& session, Bytes data_bytes,
                                      std::uint32_t k) {
  // A timed-out access is failed from here on: retry/watchdog events
  // still queued must no-op during the drain below.
  if (!session.complete) session.failed = true;
  if (auto* fr = flightRecorder(); fr != nullptr) {
    // Timed-out accesses never went through finish()/fail(); close the
    // ring here (idempotent for the ones that did).
    const SimTime end = session.finish_time > 0.0
                            ? session.finish_time + session.extra_latency
                            : engine().now();
    fr->endAccess(session.stream, end, session.complete);
  }
  if (auto* t = tracer(); t != nullptr) {
    // The whole-access envelope span (start through completion + decode
    // tail, or through the run boundary for failed/timed-out accesses).
    const SimTime end = session.finish_time > 0.0
                            ? session.finish_time + session.extra_latency
                            : engine().now();
    t->namedSpan("client.access", session.start, end, session.stream,
                 trace::kClientTrack);
  }
  // Cancel whatever speculative work is still queued, then let in-flight
  // service and deliveries drain so the byte accounting is final.
  cancelOutstanding(session);
  cluster_->stopBackground();
  engine().run();
  auditDrained();
  cluster_->resetDisks();
  active_session_ = nullptr;  // the session dies with the caller's frame
  return collect(session, data_bytes, k);
}

void Scheme::auditDrained() {
#ifdef ROBUSTORE_CHECKED
  for (std::uint32_t s = 0; s < cluster_->numServers(); ++s) {
    server::StorageServer& srv = cluster_->server(s);
    ROBUSTORE_EXPECTS(srv.liveReadCount() == 0 && srv.liveWriteCount() == 0,
                      "drained server still holds request records");
    for (std::uint32_t d = 0; d < srv.numDisks(); ++d) {
      ROBUSTORE_EXPECTS(srv.disk(d).liveRequestCount() == 0,
                        "drained disk still holds request slots");
    }
  }
  ROBUSTORE_EXPECTS(tracked_.live() == 0,
                    "drained scheme still holds tracked reads");
#endif
}

std::unique_ptr<Scheme> makeScheme(SchemeKind kind, Cluster& cluster,
                                   const coding::LtParams& lt,
                                   CodecKind codec) {
  switch (kind) {
    case SchemeKind::kRaid0:
      return std::make_unique<Raid0Scheme>(cluster);
    case SchemeKind::kRRaidS:
      return std::make_unique<RRaidScheme>(cluster, /*adaptive=*/false);
    case SchemeKind::kRRaidA:
      return std::make_unique<RRaidScheme>(cluster, /*adaptive=*/true);
    case SchemeKind::kRobuStore:
      return std::make_unique<RobuStoreScheme>(cluster, lt,
                                               /*write_pipeline_depth=*/2,
                                               codec);
  }
  ROBUSTORE_EXPECTS(false, "unknown scheme kind");
  return nullptr;
}

}  // namespace robustore::client
