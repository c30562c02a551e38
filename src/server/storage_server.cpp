#include "server/storage_server.hpp"

#include <utility>

#include "common/expects.hpp"

namespace robustore::server {

StorageServer::StorageServer(sim::Engine& engine, const ServerConfig& config,
                             Rng rng, std::uint32_t server_id)
    : engine_(&engine),
      config_(config),
      id_(server_id),
      link_(engine, config.round_trip, config.nic_bandwidth),
      cache_(config.cache),
      admission_(config.admission, config.disks_per_server) {
  ROBUSTORE_EXPECTS(config.disks_per_server >= 1, "server needs >= 1 disk");
  disks_.reserve(config.disks_per_server);
  for (std::uint32_t d = 0; d < config.disks_per_server; ++d) {
    disks_.push_back(std::make_unique<disk::Disk>(
        engine, config.disk_params, rng.fork(d),
        server_id * config.disks_per_server + d));
  }
}

void StorageServer::setTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  link_.setTrace(tracer, trace::serverNicTrack(id_));
  if (client_link_ != nullptr) {
    client_link_->setTrace(tracer, trace::kClientLinkTrack);
  }
  for (auto& d : disks_) d->setTracer(tracer);
}

void StorageServer::dispatchToClient(ReadHandle h, bool cache_hit) {
  ReadRecord& r = reads_[h];
  r.phase = ReadPhase::kDispatched;
  const disk::StreamId stream = r.req.stream;
  network_bytes_[stream] += r.block_bytes;
  network_bytes_total_ += r.block_bytes;
  SimTime arrival = link_.reserveSend(r.block_bytes, stream);
  if (client_link_ != nullptr) {
    arrival = client_link_->reserveSendFrom(arrival, r.block_bytes, stream);
  }
  engine_->scheduleAt(arrival, [this, h, cache_hit] {
    DeliveryFn on_delivered = std::move(reads_[h].on_delivered);
    reads_.release(h);
    on_delivered(cache_hit);
  });
}

StorageServer::ReadHandle StorageServer::readBlock(const BlockRead& req,
                                                   DeliveryFn on_delivered,
                                                   FailureFn on_failed) {
  ROBUSTORE_EXPECTS(req.layout != nullptr, "read without a layout");
  ROBUSTORE_EXPECTS(req.disk_index < disks_.size(), "disk index out of range");
  const bool partial =
      req.bytes_override != 0 && req.bytes_override < req.layout->blockBytes();
  const ReadHandle h = reads_.acquire();
  ReadRecord& r = reads_[h];
  r.req = req;
  r.on_delivered = std::move(on_delivered);
  r.on_failed = std::move(on_failed);
  r.issued = engine_->now();
  r.block_bytes = partial ? req.bytes_override : req.layout->blockBytes();
  r.lines =
      cache_.enabled() && !partial ? cache_.linesPerBlock(r.block_bytes) : 0;
  // Request control message travels to the filer first.
  engine_->schedule(link_.oneWayLatency(), [this, h] { forwardRead(h); });
  return h;
}

void StorageServer::forwardRead(ReadHandle h) {
  ReadRecord* r = reads_.get(h);
  if (r == nullptr) return;  // cancelled on the way
  const BlockRead& req = r->req;
  if (tracer_ != nullptr) {
    // Forward stage: client issue through the filer's dispatch decision
    // (cache probe or disk hand-off, both immediate once here).
    tracer_->span(trace::Stage::kServerForward, r->issued, engine_->now(),
                  req.stream, trace::serverNicTrack(id_),
                  disks_[req.disk_index]->id());
  }
  if (r->lines != 0 && cache_.containsBlock(req.cache_key, r->lines)) {
    if (tracer_ != nullptr) {
      tracer_->instant("server.cache_hit", engine_->now(), req.stream,
                       trace::serverNicTrack(id_),
                       disks_[req.disk_index]->id(), req.cache_key);
    }
    dispatchToClient(h, /*cache_hit=*/true);
    return;
  }
  serveFromDisk(h);
}

bool StorageServer::cancelRead(ReadHandle handle) {
  ReadRecord* r = reads_.get(handle);
  if (r == nullptr) return false;  // delivered, or released as cancelled
  switch (r->phase) {
    case ReadPhase::kForwarding:
      reads_.release(handle);  // the forward event finds nothing
      return true;
    case ReadPhase::kAtDisk:
      if (!r->cancelled) {
        r->cancelled = true;
        // Dropped from the queue: the disk will never call back, so the
        // record and both callbacks go now. Otherwise it is in service
        // (or its failure notice is already scheduled) and the disk's
        // callback settles it.
        if (disks_[r->req.disk_index]->cancel(r->disk_request)) {
          reads_.release(handle);
        }
      }
      return true;
    case ReadPhase::kDispatched:
      return r->cancelled;
    case ReadPhase::kFailed:
      // Nothing will be delivered; a scheduled notice still arrives.
      r->cancelled = true;
      return true;
  }
  return false;
}

void StorageServer::serveFromDisk(ReadHandle h) {
  ReadRecord& r = reads_[h];
  disk::Disk& d = *disks_[r.req.disk_index];
  disk::DiskRequestSpec spec;
  spec.stream = r.req.stream;
  spec.priority = disk::Priority::kForeground;
  spec.extents = r.req.layout->blockExtents(r.req.layout_block);
  spec.reposition_first = r.req.force_position_first;
  if (r.block_bytes < r.req.layout->blockBytes()) {
    spec.max_bytes = r.block_bytes;
  }
  spec.media_rate = d.mediaRate(r.req.layout->zone());
  r.phase = ReadPhase::kAtDisk;
  r.disk_request =
      d.submit(spec, [this, h](disk::RequestId) { onReadServed(h); },
               [this, h](disk::RequestId) { onReadFailed(h); });
}

void StorageServer::onReadServed(ReadHandle h) {
  // A read cancelled in service still completes and is still delivered.
  const ReadRecord& r = reads_[h];
  if (r.lines != 0) cache_.insertBlock(r.req.cache_key, r.lines);
  dispatchToClient(h, /*cache_hit=*/false);
}

void StorageServer::onReadFailed(ReadHandle h) {
  // Disk died with the request queued/in service (or was already dead),
  // or the stream was cancelled with it queued. The failure notice rides
  // back like any response.
  ReadRecord& r = reads_[h];
  r.phase = ReadPhase::kFailed;
  if (r.cancelled || !r.on_failed) {
    reads_.release(h);  // the client gave up on it already, or never asked
    return;
  }
  engine_->schedule(link_.oneWayLatency(), [this, h] {
    FailureFn on_failed = std::move(reads_[h].on_failed);
    reads_.release(h);
    on_failed();
  });
}

void StorageServer::writeBlock(const BlockWrite& req, AckFn on_ack,
                               FailureFn on_failed) {
  ROBUSTORE_EXPECTS(req.layout != nullptr, "write without a layout");
  ROBUSTORE_EXPECTS(req.disk_index < disks_.size(), "disk index out of range");
  const Bytes block_bytes = req.layout->blockBytes();
  // The payload must cross the network in full regardless of outcome.
  network_bytes_[req.stream] += block_bytes;
  network_bytes_total_ += block_bytes;
  const WriteHandle h = writes_.acquire();
  WriteRecord& w = writes_[h];
  w.req = req;
  w.on_ack = std::move(on_ack);
  w.on_failed = std::move(on_failed);
  w.issued = engine_->now();
  engine_->schedule(link_.oneWayLatency(), [this, h] { forwardWrite(h); });
}

void StorageServer::forwardWrite(WriteHandle h) {
  const WriteRecord& w = writes_[h];
  disk::Disk& d = *disks_[w.req.disk_index];
  if (tracer_ != nullptr) {
    tracer_->span(trace::Stage::kServerForward, w.issued, engine_->now(),
                  w.req.stream, trace::serverNicTrack(id_), d.id());
  }
  disk::DiskRequestSpec spec;
  spec.stream = w.req.stream;
  spec.priority = disk::Priority::kForeground;
  spec.extents = w.req.layout->blockExtents(w.req.layout_block);
  spec.media_rate = d.mediaRate(w.req.layout->zone());
  spec.is_write = true;
  d.submit(
      spec,
      [this, h](disk::RequestId) {
        // Commit ack travels back to the client (write-through: no
        // caching).
        engine_->schedule(link_.oneWayLatency(), [this, h] {
          AckFn on_ack = std::move(writes_[h].on_ack);
          writes_.release(h);
          if (on_ack) on_ack();
        });
      },
      [this, h](disk::RequestId) { onWriteFailed(h); });
}

void StorageServer::onWriteFailed(WriteHandle h) {
  // Negative ack: the commit is lost with the disk.
  if (!writes_[h].on_failed) {
    writes_.release(h);
    return;
  }
  engine_->schedule(link_.oneWayLatency(), [this, h] {
    FailureFn on_failed = std::move(writes_[h].on_failed);
    writes_.release(h);
    on_failed();
  });
}

Bytes StorageServer::cancelStream(disk::StreamId stream) {
  Bytes in_flight = 0;
  for (auto& d : disks_) {
    d->cancelStream(stream);
    in_flight += d->inServiceBytes(stream);
  }
  return in_flight;
}

Bytes StorageServer::networkBytes(disk::StreamId stream) const {
  const auto it = network_bytes_.find(stream);
  return it == network_bytes_.end() ? 0 : it->second;
}

}  // namespace robustore::server
