#include "server/storage_server.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace robustore::server {
namespace {

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() {
    config.disks_per_server = 2;
    config.round_trip = 10 * kMilliseconds;
    config.nic_bandwidth = mbps(100.0);
  }

  StorageServer makeServer() {
    return StorageServer(engine, config, rng.fork(1), 0);
  }

  disk::FileDiskLayout makeLayout(std::uint32_t blocks,
                                  Bytes block = 256 * kKiB) {
    return disk::FileDiskLayout::generate(blocks, block,
                                          disk::LayoutConfig{128, 0.0}, rng);
  }

  sim::Engine engine;
  ServerConfig config;
  Rng rng{5};
};

TEST_F(ServerFixture, ReadDeliversAfterLatencyAndService) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(1);
  bool delivered = false;
  bool was_cache_hit = true;
  StorageServer::BlockRead req;
  req.stream = 1;
  req.cache_key = 0;
  req.disk_index = 0;
  req.layout = &layout;
  req.layout_block = 0;
  srv.readBlock(req, [&](bool hit) {
    delivered = true;
    was_cache_hit = hit;
  });
  engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_FALSE(was_cache_hit);
  // At least one full RTT plus positioning plus NIC transfer.
  EXPECT_GT(engine.now(), 10 * kMilliseconds);
  EXPECT_EQ(srv.networkBytes(1), 256 * kKiB);
}

TEST_F(ServerFixture, CacheHitSkipsTheDisk) {
  config.cache.enabled = true;
  StorageServer srv = makeServer();
  const auto layout = makeLayout(1);
  StorageServer::BlockRead req;
  req.stream = 1;
  req.cache_key = 1 << 20;
  req.disk_index = 0;
  req.layout = &layout;
  req.layout_block = 0;

  SimTime first_latency = 0;
  srv.readBlock(req, [&](bool hit) {
    EXPECT_FALSE(hit);
    first_latency = engine.now();
  });
  engine.run();

  const SimTime second_start = engine.now();
  SimTime second_latency = 0;
  bool second_hit = false;
  srv.readBlock(req, [&](bool hit) {
    second_hit = hit;
    second_latency = engine.now() - second_start;
  });
  engine.run();
  EXPECT_TRUE(second_hit);
  EXPECT_LT(second_latency, first_latency);
  EXPECT_EQ(srv.disk(0).bytesServed(disk::Priority::kForeground),
            256 * kKiB);  // disk touched only once
}

TEST_F(ServerFixture, CancelBeforeServiceSuppressesDelivery) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(2);
  int delivered = 0;
  StorageServer::BlockRead req;
  req.stream = 1;
  req.layout = &layout;
  req.disk_index = 0;
  req.layout_block = 0;
  req.cache_key = 0;
  srv.readBlock(req, [&](bool) { ++delivered; });
  req.layout_block = 1;
  req.cache_key = 1 << 20;
  auto handle = srv.readBlock(req, [&](bool) { ++delivered; });
  // Cancel the second block before the request even reaches the filer.
  EXPECT_TRUE(srv.cancelRead(handle));
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(srv.networkBytes(1), 256 * kKiB);
}

TEST_F(ServerFixture, WriteAcksAfterCommit) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(1);
  bool acked = false;
  StorageServer::BlockWrite req;
  req.stream = 2;
  req.cache_key = 0;
  req.disk_index = 1;
  req.layout = &layout;
  req.layout_block = 0;
  srv.writeBlock(req, [&] { acked = true; });
  engine.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(srv.networkBytes(2), 256 * kKiB);
  EXPECT_EQ(srv.disk(1).bytesServed(disk::Priority::kForeground), 256 * kKiB);
}

TEST_F(ServerFixture, CancelStreamStopsQueuedBlocks) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(4);
  int delivered = 0;
  for (std::uint32_t b = 0; b < 4; ++b) {
    StorageServer::BlockRead req;
    req.stream = 3;
    req.cache_key = static_cast<std::uint64_t>(b) << 20;
    req.disk_index = 0;
    req.layout = &layout;
    req.layout_block = b;
    srv.readBlock(req, [&](bool) { ++delivered; });
  }
  // Let the requests reach the disk queue, then cancel the stream.
  engine.runUntil(6 * kMilliseconds);
  srv.cancelStream(3);
  engine.run();
  // Only the request in service at cancellation time still delivers.
  EXPECT_LE(delivered, 1);
  EXPECT_LT(srv.networkBytes(3), 4 * 256 * kKiB);
}

TEST_F(ServerFixture, ClientLinkCapsAggregateDelivery) {
  // Two servers stream one block each; a 10 MB/s shared client downlink
  // forces the arrivals to serialise.
  config.nic_bandwidth = 0.0;  // isolate the client link
  StorageServer a(engine, config, rng.fork(7), 0);
  StorageServer b(engine, config, rng.fork(8), 1);
  net::Link client(engine, 0.0, mbps(10.0));
  a.setClientLink(&client);
  b.setClientLink(&client);

  const auto layout = makeLayout(1, 1 * kMiB);
  SimTime arrivals[2] = {0, 0};
  StorageServer::BlockRead req;
  req.stream = 1;
  req.cache_key = 0;
  req.disk_index = 0;
  req.layout = &layout;
  req.layout_block = 0;
  a.readBlock(req, [&](bool) { arrivals[0] = engine.now(); });
  b.readBlock(req, [&](bool) { arrivals[1] = engine.now(); });
  engine.run();
  // 1 MB at 10 MB/s = ~0.105 s per block on the shared link: the second
  // arrival is at least that much after the first.
  const SimTime gap = std::abs(arrivals[0] - arrivals[1]);
  EXPECT_GT(gap, 0.08);
}

TEST_F(ServerFixture, NetworkBytesPerStreamAreSeparate) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(2);
  for (std::uint32_t b = 0; b < 2; ++b) {
    StorageServer::BlockRead req;
    req.stream = 10 + b;
    req.cache_key = static_cast<std::uint64_t>(b) << 20;
    req.disk_index = 0;
    req.layout = &layout;
    req.layout_block = b;
    srv.readBlock(req, [](bool) {});
  }
  engine.run();
  EXPECT_EQ(srv.networkBytes(10), 256 * kKiB);
  EXPECT_EQ(srv.networkBytes(11), 256 * kKiB);
  EXPECT_EQ(srv.networkBytes(12), 0u);
}

// --- Request records: lifetime and cancel semantics ------------------------

/// A read of `block` on disk 0 of stream 1.
StorageServer::BlockRead blockRead(const disk::FileDiskLayout& layout,
                                   std::uint32_t block) {
  StorageServer::BlockRead req;
  req.stream = 1;
  req.cache_key = static_cast<std::uint64_t>(block) << 20;
  req.disk_index = 0;
  req.layout = &layout;
  req.layout_block = block;
  return req;
}

TEST_F(ServerFixture, ReadCancelledWhileQueuedReleasesBothCallbacksAtOnce) {
  // The disk drops a request cancelled in its queue without calling back,
  // so the cancel itself must free the read's record. A record that kept
  // its callbacks would keep whatever they capture (a tracked read, its
  // scheme state) alive with it.
  StorageServer srv = makeServer();
  const auto layout = makeLayout(2);
  int delivered = 0;
  int failed = 0;
  srv.readBlock(blockRead(layout, 0), [&](bool) { ++delivered; });
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  const auto queued = srv.readBlock(
      blockRead(layout, 1),
      [&delivered, sentinel](bool) { ++delivered; },
      [&failed, sentinel] { ++failed; });
  sentinel.reset();
  // Both requests reach the filer; the first starts service, the second
  // waits in the disk queue.
  engine.runUntil(srv.link().oneWayLatency() + 0.1 * kMilliseconds);
  ASSERT_TRUE(srv.disk(0).busy());
  ASSERT_EQ(srv.disk(0).queueDepth(), 1u);
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(srv.cancelRead(queued));
  EXPECT_TRUE(watch.expired());  // at once, not at a later event
  EXPECT_EQ(srv.liveReadCount(), 1u);
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(srv.liveReadCount(), 0u);
  EXPECT_EQ(srv.disk(0).liveRequestCount(), 0u);
}

TEST_F(ServerFixture, ReadCancelledOnItsWayReleasesBothCallbacksAtOnce) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(1);
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  int calls = 0;
  const auto h = srv.readBlock(
      blockRead(layout, 0), [&calls, sentinel](bool) { ++calls; },
      [&calls, sentinel] { ++calls; });
  sentinel.reset();
  EXPECT_TRUE(srv.cancelRead(h));
  EXPECT_TRUE(watch.expired());
  engine.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(srv.disk(0).bytesServed(disk::Priority::kForeground), 0u);
  EXPECT_EQ(srv.liveReadCount(), 0u);
}

TEST_F(ServerFixture, ReadCancelledInServiceStillDelivers) {
  // The disk cannot take back a request it is serving: the cancel reports
  // success (the client re-issues), yet the block still arrives, and the
  // client takes whichever attempt lands first.
  StorageServer srv = makeServer();
  const auto layout = makeLayout(1);
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  int delivered = 0;
  const auto h = srv.readBlock(blockRead(layout, 0),
                               [&delivered, sentinel](bool) { ++delivered; });
  sentinel.reset();
  engine.runUntil(srv.link().oneWayLatency() + 0.1 * kMilliseconds);
  ASSERT_TRUE(srv.disk(0).busy());
  EXPECT_TRUE(srv.cancelRead(h));
  EXPECT_TRUE(srv.cancelRead(h));  // idempotent
  EXPECT_FALSE(watch.expired());   // the delivery is still owed
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(srv.cancelRead(h));  // delivered: nothing left to cancel
  EXPECT_EQ(srv.liveReadCount(), 0u);
}

TEST_F(ServerFixture, StaleReadHandleResolvesToNothingAfterSlotReuse) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(2);
  int first = 0;
  int second = 0;
  const auto a = srv.readBlock(blockRead(layout, 0), [&](bool) { ++first; });
  engine.run();
  ASSERT_EQ(first, 1);
  const auto b = srv.readBlock(blockRead(layout, 1), [&](bool) { ++second; });
  ASSERT_EQ(a.value >> 32, b.value >> 32);  // the same slot, reused
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(srv.cancelRead(a));  // must not reach the new read
  engine.run();
  EXPECT_EQ(second, 1);
}

TEST_F(ServerFixture, StreamCancelNoticeRidesTheFailureChannel) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(3);
  int delivered = 0;
  int failed = 0;
  for (std::uint32_t b = 0; b < 3; ++b) {
    srv.readBlock(blockRead(layout, b), [&](bool) { ++delivered; },
                  [&] { ++failed; });
  }
  engine.runUntil(srv.link().oneWayLatency() + 0.1 * kMilliseconds);
  srv.cancelStream(1);
  EXPECT_EQ(srv.liveReadCount(), 3u);  // the notices are still on the way
  engine.run();
  EXPECT_EQ(delivered, 1);  // in service at the cancel
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(srv.liveReadCount(), 0u);
}

TEST_F(ServerFixture, WriteRecordsReleaseTheirCallbacks) {
  StorageServer srv = makeServer();
  const auto layout = makeLayout(2);
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  int acked = 0;
  int failed = 0;
  StorageServer::BlockWrite req;
  req.stream = 2;
  req.disk_index = 1;
  req.layout = &layout;
  for (std::uint32_t b = 0; b < 2; ++b) {
    req.layout_block = b;
    srv.writeBlock(req, [&acked, sentinel] { ++acked; },
                   [&failed, sentinel] { ++failed; });
  }
  sentinel.reset();
  // Both writes die with their disk, one in service, one queued.
  engine.runUntil(srv.link().oneWayLatency() + 0.1 * kMilliseconds);
  srv.disk(1).failStop();
  EXPECT_EQ(srv.liveWriteCount(), 2u);
  engine.run();
  EXPECT_EQ(acked, 0);
  EXPECT_EQ(failed, 2);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(srv.liveWriteCount(), 0u);
}

}  // namespace
}  // namespace robustore::server
