// Speculative-access cancellation (§5.3.3): the defining resource-economy
// mechanism. These tests pin down how many bytes each scheme actually
// moves, and that cancellation — not luck — is what bounds the overhead.

#include <gtest/gtest.h>

#include <memory>

#include "client/raid0.hpp"
#include "client/robustore_scheme.hpp"
#include "client/rraid.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace robustore::client {
namespace {

/// Exposes the base scheme's tracked-read primitives on a striped file.
class ProbeScheme final : public Scheme {
 public:
  using Scheme::Scheme;
  using Scheme::cancelTracked;
  using Scheme::finish;
  using Scheme::issueTrackedRead;

  [[nodiscard]] SchemeKind kind() const override { return SchemeKind::kRaid0; }
  [[nodiscard]] StoredFile planFile(const AccessConfig& config,
                                    std::span<const std::uint32_t> disks,
                                    const LayoutPolicy& policy,
                                    Rng& rng) override {
    return Raid0Scheme(cluster()).planFile(config, disks, policy, rng);
  }

 protected:
  void startRead(Session&, StoredFile&, const AccessConfig&) override {}
  void startWrite(Session&, const AccessConfig&,
                  std::span<const std::uint32_t>, const LayoutPolicy&, Rng&,
                  StoredFile&) override {}
};

class CancellationFixture : public ::testing::Test {
 protected:
  CancellationFixture() {
    cluster_config.num_servers = 2;
    cluster_config.server.disks_per_server = 4;
    access.block_bytes = 256 * kKiB;
    access.k = 64;
    access.redundancy = 3.0;
  }

  std::vector<std::uint32_t> allDisks() {
    std::vector<std::uint32_t> v(8);
    for (std::uint32_t i = 0; i < 8; ++i) v[i] = i;
    return v;
  }

  sim::Engine engine;
  ClusterConfig cluster_config;
  AccessConfig access;
  LayoutPolicy policy;
  Rng rng{31};
};

TEST_F(CancellationFixture, RobuStoreReadMovesFarLessThanStored) {
  Cluster cluster(engine, cluster_config, rng.fork(1));
  RobuStoreScheme scheme(cluster);
  Rng trial(1);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  const Bytes stored =
      file.totalStoredBlocks() * access.block_bytes;  // 4x the data
  // Cancellation must keep network traffic well under "read everything":
  // roughly reception overhead + a block in flight per disk.
  EXPECT_LT(m.network_bytes, stored * 3 / 4);
  EXPECT_GE(m.network_bytes, m.data_bytes);
}

TEST_F(CancellationFixture, RRaidSpeculativeAlsoCancels) {
  Cluster cluster(engine, cluster_config, rng.fork(2));
  RRaidScheme scheme(cluster, /*adaptive=*/false);
  Rng trial(2);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  const Bytes stored = file.totalStoredBlocks() * access.block_bytes;
  EXPECT_LT(m.network_bytes, stored);
}

TEST_F(CancellationFixture, InFlightBlocksAreChargedToTheAccess) {
  // The paper is explicit that bytes on the wire at cancellation time
  // count as overhead (§4.1.2). The accounting must therefore exceed the
  // client's accepted blocks whenever any disk was mid-service.
  Cluster cluster(engine, cluster_config, rng.fork(3));
  RobuStoreScheme scheme(cluster);
  Rng trial(3);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  EXPECT_GE(m.network_bytes,
            static_cast<Bytes>(m.blocks_received) * access.block_bytes);
}

TEST_F(CancellationFixture, WriteCancellationBoundsOvershoot) {
  Cluster cluster(engine, cluster_config, rng.fork(4));
  RobuStoreScheme scheme(cluster, coding::LtParams{}, /*pipeline=*/2);
  Rng trial(4);
  StoredFile file;
  const auto m = scheme.write(access, allDisks(), policy, trial, &file);
  ASSERT_TRUE(m.complete);
  // Commits stop at the target; the network can additionally carry at
  // most pipeline-depth blocks per disk.
  const Bytes target =
      static_cast<Bytes>(access.codedBlockCount()) * access.block_bytes;
  const Bytes slack = static_cast<Bytes>(8) * 2 * access.block_bytes;
  EXPECT_GE(m.network_bytes, target);
  EXPECT_LE(m.network_bytes, target + slack);
}

TEST_F(CancellationFixture, CancelledBlocksNeverReachTheClient) {
  Cluster cluster(engine, cluster_config, rng.fork(5));
  RobuStoreScheme scheme(cluster);
  Rng trial(5);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  // The session stops counting at completion: accepted blocks stay below
  // the stored total even though the simulation drained afterwards.
  EXPECT_LT(m.blocks_received,
            static_cast<std::uint32_t>(file.totalStoredBlocks()));
}

TEST_F(CancellationFixture, RepeatedAccessesDoNotLeakState) {
  Cluster cluster(engine, cluster_config, rng.fork(6));
  RobuStoreScheme scheme(cluster);
  Rng trial(6);
  Bytes first_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    auto file = scheme.planFile(access, allDisks(), policy, trial);
    const auto m = scheme.read(file, access);
    ASSERT_TRUE(m.complete);
    if (i == 0) {
      first_bytes = m.network_bytes;
    } else {
      // Stream isolation: later accesses are not billed for earlier ones.
      EXPECT_LT(m.network_bytes, 2 * first_bytes + access.dataBytes());
    }
  }
}

TEST_F(CancellationFixture, StaleTrackedHandleResolvesToNothingAfterSlotReuse) {
  Cluster cluster(engine, cluster_config, rng.fork(7));
  ProbeScheme scheme(cluster);
  Rng trial(7);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  Scheme::Session session;
  session.stream = cluster.nextStream();
  session.on_complete = [] {};
  Scheme::TrackedHandle first;
  Scheme::TrackedHandle next;
  int delivered = 0;
  first = scheme.issueTrackedRead(
      session, file, 0, 0, /*force_position=*/false, access, [&](bool) {
        // `first` settled before its block was handed over, so the next
        // read takes its slot; the old handle must not reach it.
        next = scheme.issueTrackedRead(session, file, 0, 1, false, access,
                                       [&](bool) { ++delivered; });
        scheme.cancelTracked(session, first);
      });
  engine.run();
  ASSERT_EQ(next.value >> 32, first.value >> 32);  // the slot was reused
  EXPECT_FALSE(next == first);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(session.live_requests, 0u);
  EXPECT_TRUE(session.tracked_reads.empty());
  EXPECT_EQ(scheme.liveTrackedReads(), 0u);
}

TEST_F(CancellationFixture, AbortedTrackedReadsReleaseTheirCallbacksAtOnce) {
  Cluster cluster(engine, cluster_config, rng.fork(8));
  ProbeScheme scheme(cluster);
  Rng trial(8);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  Scheme::Session session;
  session.stream = cluster.nextStream();
  session.on_complete = [] {};
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  int calls = 0;
  for (std::uint32_t pos = 0; pos < 4; ++pos) {
    scheme.issueTrackedRead(
        session, file, 0, pos, false, access,
        [&calls, sentinel](bool) { ++calls; },
        [&calls, sentinel] { ++calls; });
  }
  sentinel.reset();
  // One read in service, three queued on the placement's disk.
  engine.runUntil(cluster_config.server.round_trip);
  ASSERT_EQ(session.tracked_reads.size(), 4u);
  scheme.abortRead(session);
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(session.tracked_reads.empty());
  EXPECT_EQ(scheme.liveTrackedReads(), 0u);
  engine.run();
  EXPECT_EQ(calls, 0);
  server::StorageServer& srv = cluster.serverOfDisk(file.placements[0].global_disk);
  EXPECT_EQ(srv.liveReadCount(), 0u);
}

TEST_F(CancellationFixture, ReadBackingOffWhenItsAccessEndsSettles) {
  // A failed attempt waits out a backoff before its re-issue. If the
  // access finishes meanwhile, no attempt is in flight to settle the
  // read later, so the retry itself must.
  Cluster cluster(engine, cluster_config, rng.fork(9));
  ProbeScheme scheme(cluster);
  Rng trial(9);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  cluster.disk(file.placements[0].global_disk).failStop();
  Scheme::Session session;
  session.stream = cluster.nextStream();
  session.on_complete = [] {};
  int calls = 0;
  scheme.issueTrackedRead(session, file, 0, 0, false, access,
                          [&](bool) { ++calls; }, [&] { ++calls; });
  // The failure notice arrives after a round trip; the re-issue is then
  // reissue_delay away.
  engine.runUntil(cluster_config.server.round_trip +
                  access.reissue_delay / 2);
  ASSERT_EQ(session.failures_observed, 1u);
  ASSERT_EQ(session.live_requests, 1u);
  scheme.finish(session);
  engine.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(session.live_requests, 0u);
  EXPECT_TRUE(session.tracked_reads.empty());
  EXPECT_EQ(scheme.liveTrackedReads(), 0u);
}

}  // namespace
}  // namespace robustore::client
