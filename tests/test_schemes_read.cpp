#include <gtest/gtest.h>

#include <memory>

#include "client/raid0.hpp"
#include "client/robustore_scheme.hpp"
#include "client/rraid.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "sim/engine.hpp"

namespace robustore::client {
namespace {

class ReadFixture : public ::testing::Test {
 protected:
  ReadFixture() {
    cluster_config.num_servers = 2;
    cluster_config.server.disks_per_server = 4;
    access.block_bytes = 256 * kKiB;
    access.k = 32;  // 8 MB data
    access.redundancy = 2.0;
    policy.heterogeneous = true;
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
  Rng rng{11};
};

class SchemeReadTest : public ReadFixture,
                       public ::testing::WithParamInterface<SchemeKind> {};

TEST_P(SchemeReadTest, ReadCompletesWithSaneMetrics) {
  Cluster cluster(engine, cluster_config, rng.fork(1));
  auto scheme = makeScheme(GetParam(), cluster, coding::LtParams{});
  Rng trial(7);
  auto file = scheme->planFile(access, allDisks(), policy, trial);
  const auto m = scheme->read(file, access);
  EXPECT_TRUE(m.complete) << scheme->name();
  EXPECT_GT(m.latency, access.metadata_latency);
  EXPECT_GT(m.bandwidthMBps(), 0.0);
  EXPECT_GE(m.ioOverhead(), -1e-9);
  EXPECT_GE(m.blocks_received, access.k);
  EXPECT_EQ(m.data_bytes, access.dataBytes());
  EXPECT_GE(m.network_bytes, m.data_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeReadTest,
                         ::testing::Values(SchemeKind::kRaid0,
                                           SchemeKind::kRRaidS,
                                           SchemeKind::kRRaidA,
                                           SchemeKind::kRobuStore),
                         [](const ::testing::TestParamInfo<SchemeKind>& p) {
                           switch (p.param) {
                             case SchemeKind::kRaid0:
                               return std::string("Raid0");
                             case SchemeKind::kRRaidS:
                               return std::string("RRaidS");
                             case SchemeKind::kRRaidA:
                               return std::string("RRaidA");
                             case SchemeKind::kRobuStore:
                               return std::string("RobuStore");
                           }
                           return std::string("Unknown");
                         });

TEST_F(ReadFixture, Raid0PlanStoresEveryBlockOnce) {
  Cluster cluster(engine, cluster_config, rng.fork(2));
  Raid0Scheme scheme(cluster);
  Rng trial(3);
  const auto file = scheme.planFile(access, allDisks(), policy, trial);
  EXPECT_EQ(file.totalStoredBlocks(), access.k);
  std::vector<int> counts(access.k, 0);
  for (const auto& p : file.placements) {
    for (const auto b : p.stored) ++counts[b];
  }
  for (const auto c : counts) EXPECT_EQ(c, 1);
}

TEST_F(ReadFixture, RRaidPlanStoresReplicaCountCopies) {
  Cluster cluster(engine, cluster_config, rng.fork(3));
  RRaidScheme scheme(cluster, /*adaptive=*/false);
  Rng trial(4);
  const auto file = scheme.planFile(access, allDisks(), policy, trial);
  EXPECT_EQ(file.totalStoredBlocks(),
            static_cast<std::uint64_t>(access.k) * access.replicaCount());
}

TEST_F(ReadFixture, RobuStorePlanMatchesRedundancy) {
  Cluster cluster(engine, cluster_config, rng.fork(4));
  RobuStoreScheme scheme(cluster);
  Rng trial(5);
  const auto file = scheme.planFile(access, allDisks(), policy, trial);
  EXPECT_EQ(file.totalStoredBlocks(), access.codedBlockCount());
  ASSERT_NE(file.lt_graph, nullptr);
  EXPECT_EQ(file.lt_graph->k(), access.k);
  EXPECT_TRUE(file.lt_graph->decodableWithAll());
}

TEST_F(ReadFixture, RobuStoreCompletesWithoutAllBlocks) {
  Cluster cluster(engine, cluster_config, rng.fork(5));
  RobuStoreScheme scheme(cluster);
  Rng trial(6);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  // With 2x redundancy (N = 3K) the decoder finishes long before all
  // blocks arrive.
  EXPECT_LT(m.blocks_received, access.codedBlockCount());
  EXPECT_GE(m.blocks_received, access.k);
}

TEST_F(ReadFixture, RRaidSpeculativeReceivesDuplicates) {
  Cluster cluster(engine, cluster_config, rng.fork(6));
  RRaidScheme scheme(cluster, /*adaptive=*/false);
  Rng trial(8);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  // Speculative replication almost surely receives some duplicate copies.
  EXPECT_GT(m.blocks_received, access.k);
}

TEST_F(ReadFixture, Raid0ReceivesExactlyK) {
  Cluster cluster(engine, cluster_config, rng.fork(7));
  Raid0Scheme scheme(cluster);
  Rng trial(9);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);
  EXPECT_EQ(m.blocks_received, access.k);
  EXPECT_NEAR(m.receptionOverhead(), 0.0, 1e-9);
}

TEST_F(ReadFixture, SingleDiskReadWorks) {
  Cluster cluster(engine, cluster_config, rng.fork(8));
  RobuStoreScheme scheme(cluster);
  Rng trial(10);
  const std::vector<std::uint32_t> one{3};
  auto file = scheme.planFile(access, one, policy, trial);
  const auto m = scheme.read(file, access);
  EXPECT_TRUE(m.complete);
}

TEST_F(ReadFixture, BackToBackReadsOnSameCluster) {
  Cluster cluster(engine, cluster_config, rng.fork(9));
  Raid0Scheme scheme(cluster);
  Rng trial(11);
  for (int i = 0; i < 3; ++i) {
    auto file = scheme.planFile(access, allDisks(), policy, trial);
    const auto m = scheme.read(file, access);
    EXPECT_TRUE(m.complete) << "trial " << i;
  }
}

}  // namespace
}  // namespace robustore::client
