#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "disk/disk.hpp"
#include "net/link.hpp"
#include "server/admission.hpp"
#include "server/filer_cache.hpp"
#include "sim/engine.hpp"
#include "sim/slab.hpp"
#include "sim/small_fn.hpp"

namespace robustore::server {

/// Configuration of one storage server (filer + attached disks), §6.2.5.
struct ServerConfig {
  std::uint32_t disks_per_server = 8;
  disk::DiskParams disk_params;
  FilerCacheConfig cache;
  AdmissionConfig admission;  // disabled unless the experiment enables it
  /// Client <-> server round-trip latency (1 ms baseline; up to 100 ms in
  /// the WAN sweep).
  SimTime round_trip = 1.0 * kMilliseconds;
  /// Filer NIC rate in bytes/second: cache hits and disk responses
  /// serialise through it. 0 = unlimited.
  double nic_bandwidth = mbps(250.0);
};

/// A virtual storage server: one filer (network endpoint + filesystem
/// cache) fronting several virtual disks, per Figure 6-3.
///
/// Read path: request travels one-way latency -> filer checks the cache ->
/// full hit is sent back straight from memory; otherwise the disk serves
/// the block, the filer (optionally) caches it, then sends it. Write path:
/// data travels to the filer and is written through to the disk; the ack
/// returns after disk commit (write-through, §6.2.5).
///
/// Request ownership: every issued read and write is a record in one of
/// this server's slabs holding the request, its sizes, the issue time and
/// both client callbacks, stored once. Engine events and disk callbacks
/// carry only `[this, handle]` and look the record up when they fire.
/// Every terminal path releases the record, and with it the callbacks:
/// delivery or ack (callback moved out first, since it may issue the next
/// request), a failure notice (likewise), a failure nobody listens to or
/// that hits a cancelled read, and a cancel that stops the read before
/// the disk serves it. The disk drops a request cancelled while queued
/// without telling anyone, so cancelRead() releases such a read at once.
class StorageServer {
 public:
  /// Fired when a block fully arrives at the client (reads) or when the
  /// commit ack arrives at the client (writes).
  using DeliveryFn = sim::SmallFn<void(bool cache_hit)>;
  using AckFn = sim::SmallFn<>;
  /// Fired at the client when the serving disk fails (or was already
  /// failed at submit time): the request will never be delivered/acked.
  /// Arrives one one-way latency after the failure, like any response.
  using FailureFn = sim::SmallFn<>;

  struct BlockRead {
    disk::StreamId stream = 0;
    /// Globally unique key of this stored block with room for one sub-key
    /// per cache line (see FilerCache::linesPerBlock).
    std::uint64_t cache_key = 0;
    std::uint32_t disk_index = 0;
    const disk::FileDiskLayout* layout = nullptr;
    std::uint32_t layout_block = 0;
    /// Set when the stored predecessor of this block is not part of the
    /// same request sequence (e.g. RRAID-A reads every c-th stored block):
    /// the first extent then re-positions even if physically contiguous
    /// (DiskRequestSpec::reposition_first).
    bool force_position_first = false;
    /// Nonzero = partial read of the block's leading bytes (regenerating
    /// repair's helper reads, per Dimakis). Extents and network payload
    /// are truncated to this many bytes (DiskRequestSpec::max_bytes) and
    /// the filer cache is bypassed (a fragment must not masquerade as the
    /// whole block).
    Bytes bytes_override = 0;
  };

  struct BlockWrite {
    disk::StreamId stream = 0;
    std::uint64_t cache_key = 0;
    std::uint32_t disk_index = 0;
    const disk::FileDiskLayout* layout = nullptr;
    std::uint32_t layout_block = 0;
  };

  struct ReadRecord;
  /// Value handle to an issued read: lets the client cancel the block
  /// while it is still queued (RRAID-A re-targets individual blocks when
  /// stealing work from a slow disk). Resolves to nothing once the read's
  /// record is released, even after its slot is reused.
  using ReadHandle = sim::SlabHandle<ReadRecord>;

  StorageServer(sim::Engine& engine, const ServerConfig& config, Rng rng,
                std::uint32_t server_id = 0);

  StorageServer(const StorageServer&) = delete;
  StorageServer& operator=(const StorageServer&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint32_t numDisks() const {
    return static_cast<std::uint32_t>(disks_.size());
  }
  [[nodiscard]] disk::Disk& disk(std::uint32_t i) { return *disks_[i]; }
  [[nodiscard]] FilerCache& cache() { return cache_; }
  [[nodiscard]] net::Link& link() { return link_; }
  [[nodiscard]] AdmissionController& admission() { return admission_; }

  /// Wires the shared client downlink: every response serialises through
  /// it after the server NIC. Null (default) = plentiful client
  /// bandwidth, the paper's assumption.
  void setClientLink(net::Link* link) { client_link_ = link; }

  /// Attaches a tracer to this server, its NIC link, and every attached
  /// disk (null = tracing off, the default).
  void setTracer(trace::Tracer* tracer);

  /// Issues a block read from the client side, now. `on_failed` (optional)
  /// fires instead of `on_delivered` if the serving disk fails first.
  ReadHandle readBlock(const BlockRead& req, DeliveryFn on_delivered,
                       FailureFn on_failed = nullptr);

  /// Cancels one issued read if it has not yet been served. Returns true
  /// when the block will no longer be delivered — and also for a read
  /// already in service, which still delivers (the disk cannot take it
  /// back). A read whose failure notice is on its way reports true and
  /// the notice still arrives. False once the read has been delivered or
  /// its record released.
  bool cancelRead(ReadHandle handle);

  /// Issues a block write from the client side, now. Write payload bytes
  /// are charged to the network immediately (they must cross it in full).
  /// `on_failed` (optional) fires instead of the ack on disk failure.
  void writeBlock(const BlockWrite& req, AckFn on_ack,
                  FailureFn on_failed = nullptr);

  /// Cancels all queued disk work of `stream` across this server's disks;
  /// returns the bytes still in service for the stream (they will finish
  /// and count as in-flight I/O overhead, §4.1.2).
  Bytes cancelStream(disk::StreamId stream);

  /// Payload bytes this server moved over the network on behalf of
  /// `stream` (read responses dispatched + write payloads received). The
  /// numerator of the paper's I/O-overhead metric.
  [[nodiscard]] Bytes networkBytes(disk::StreamId stream) const;

  /// Same accounting summed over every stream (telemetry probe; O(1)).
  [[nodiscard]] Bytes networkBytesTotal() const { return network_bytes_total_; }

  /// Read and write records not yet released (the quiescence ledger: zero
  /// once the engine has drained).
  [[nodiscard]] std::size_t liveReadCount() const { return reads_.live(); }
  [[nodiscard]] std::size_t liveWriteCount() const { return writes_.live(); }

  /// Where an issued read stands; each phase has one event or disk
  /// callback that moves it on (or releases it).
  enum class ReadPhase : std::uint8_t {
    kForwarding,  // request message on its way to the filer
    kAtDisk,      // submitted to the disk (queued or in service)
    kDispatched,  // response on its way to the client
    kFailed,      // disk failed it; the notice (if any) is on its way
  };

  /// One issued read in the server's slab (public only because
  /// ReadHandle names it).
  struct ReadRecord {
    BlockRead req;
    DeliveryFn on_delivered;
    FailureFn on_failed;
    SimTime issued = 0.0;
    Bytes block_bytes = 0;
    disk::RequestId disk_request = disk::kInvalidRequest;
    std::uint32_t lines = 0;  // cache lines of the block (0 = uncached)
    ReadPhase phase = ReadPhase::kForwarding;
    /// Cancelled after the disk took it (in service, or its abort already
    /// on the way): the disk's callback still settles the record.
    bool cancelled = false;
  };

 private:
  struct WriteRecord {
    BlockWrite req;
    AckFn on_ack;
    FailureFn on_failed;
    SimTime issued = 0.0;
  };
  using WriteHandle = sim::SlabHandle<WriteRecord>;

  void forwardRead(ReadHandle h);
  void serveFromDisk(ReadHandle h);
  void onReadServed(ReadHandle h);
  void onReadFailed(ReadHandle h);
  void dispatchToClient(ReadHandle h, bool cache_hit);
  void forwardWrite(WriteHandle h);
  void onWriteFailed(WriteHandle h);

  sim::Engine* engine_;
  ServerConfig config_;
  std::uint32_t id_;
  net::Link link_;
  net::Link* client_link_ = nullptr;
  FilerCache cache_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  sim::Slab<ReadRecord> reads_;
  sim::Slab<WriteRecord> writes_;
  std::unordered_map<disk::StreamId, Bytes> network_bytes_;
  Bytes network_bytes_total_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace robustore::server
