#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace robustore::core {
namespace {

ExperimentConfig smallConfig() {
  ExperimentConfig cfg;
  cfg.num_servers = 2;
  cfg.disks_per_server = 4;
  cfg.disks_per_access = 8;
  cfg.access.k = 32;
  cfg.access.block_bytes = 256 * kKiB;
  cfg.access.redundancy = 2.0;
  cfg.trials = 3;
  cfg.seed = 7;
  return cfg;
}

RunOptions withThreads(unsigned threads) {
  RunOptions options;
  options.threads = threads;
  return options;
}

TEST(ExperimentRunner, ReadExperimentProducesAllTrials) {
  ExperimentRunner runner(smallConfig());
  const auto agg = runner.run(client::SchemeKind::kRobuStore);
  EXPECT_EQ(agg.trials(), 3u);
  EXPECT_EQ(agg.incompleteCount(), 0u);
  EXPECT_GT(agg.meanBandwidthMBps(), 0.0);
}

TEST(ExperimentRunner, WriteExperiment) {
  auto cfg = smallConfig();
  cfg.op = ExperimentConfig::Op::kWrite;
  ExperimentRunner runner(cfg);
  for (const auto kind :
       {client::SchemeKind::kRaid0, client::SchemeKind::kRobuStore}) {
    const auto agg = runner.run(kind);
    EXPECT_EQ(agg.trials(), 3u) << client::schemeName(kind);
    EXPECT_GT(agg.meanBandwidthMBps(), 0.0);
  }
}

TEST(ExperimentRunner, ReadAfterWriteExperiment) {
  auto cfg = smallConfig();
  cfg.op = ExperimentConfig::Op::kReadAfterWrite;
  ExperimentRunner runner(cfg);
  const auto agg = runner.run(client::SchemeKind::kRobuStore);
  EXPECT_EQ(agg.trials(), 3u);
}

TEST(ExperimentRunner, RunAllCoversFourSchemes) {
  auto cfg = smallConfig();
  cfg.trials = 2;
  ExperimentRunner runner(cfg);
  const auto results = runner.runAll();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.aggregate.trials(), 2u) << client::schemeName(r.kind);
  }
}

TEST(ExperimentRunner, DeterministicForSameSeed) {
  ExperimentRunner a(smallConfig());
  ExperimentRunner b(smallConfig());
  const auto ra = a.run(client::SchemeKind::kRRaidS);
  const auto rb = b.run(client::SchemeKind::kRRaidS);
  EXPECT_DOUBLE_EQ(ra.meanLatency(), rb.meanLatency());
  EXPECT_DOUBLE_EQ(ra.meanBandwidthMBps(), rb.meanBandwidthMBps());
  EXPECT_DOUBLE_EQ(ra.meanIoOverhead(), rb.meanIoOverhead());
}

TEST(ExperimentRunner, DifferentSeedsDiffer) {
  auto cfg = smallConfig();
  ExperimentRunner a(cfg);
  cfg.seed = 8;
  ExperimentRunner b(cfg);
  const auto ra = a.run(client::SchemeKind::kRobuStore);
  const auto rb = b.run(client::SchemeKind::kRobuStore);
  EXPECT_NE(ra.meanLatency(), rb.meanLatency());
}

TEST(ExperimentRunner, HomogeneousBackgroundRuns) {
  auto cfg = smallConfig();
  cfg.background = ExperimentConfig::Background::kHomogeneous;
  cfg.bg_interval = 50 * kMilliseconds;
  cfg.trials = 2;
  ExperimentRunner runner(cfg);
  const auto agg = runner.run(client::SchemeKind::kRobuStore);
  EXPECT_EQ(agg.trials(), 2u);
}

TEST(ExperimentRunner, HeterogeneousBackgroundRuns) {
  auto cfg = smallConfig();
  cfg.background = ExperimentConfig::Background::kHeterogeneous;
  cfg.trials = 2;
  ExperimentRunner runner(cfg);
  const auto agg = runner.run(client::SchemeKind::kRRaidA);
  EXPECT_EQ(agg.trials(), 2u);
}

TEST(ExperimentRunner, BackgroundLoadReducesBandwidth) {
  auto cfg = smallConfig();
  cfg.layout.heterogeneous = false;  // isolate the workload effect
  ExperimentRunner quiet(cfg);
  cfg.background = ExperimentConfig::Background::kHomogeneous;
  cfg.bg_interval = 6 * kMilliseconds;
  ExperimentRunner busy(cfg);
  const auto q = quiet.run(client::SchemeKind::kRaid0);
  const auto b = busy.run(client::SchemeKind::kRaid0);
  EXPECT_LT(b.meanBandwidthMBps(), q.meanBandwidthMBps());
}

TEST(ExperimentRunner, CachedRereadsAreFaster) {
  auto cfg = smallConfig();
  cfg.reuse_file = true;
  cfg.trials = 4;
  ExperimentRunner uncached(cfg);
  cfg.cache.enabled = true;
  ExperimentRunner cached(cfg);
  const auto u = uncached.run(client::SchemeKind::kRobuStore);
  const auto c = cached.run(client::SchemeKind::kRobuStore);
  EXPECT_GT(c.meanBandwidthMBps(), u.meanBandwidthMBps());
}

// --- deterministic parallel execution ------------------------------------

void expectBitIdentical(const metrics::AccessAggregate& a,
                        const metrics::AccessAggregate& b,
                        const char* what) {
  EXPECT_EQ(a.trials(), b.trials()) << what;
  EXPECT_EQ(a.incompleteCount(), b.incompleteCount()) << what;
  // EXPECT_EQ on doubles is exact (operator==): parallel runs must
  // reproduce the serial bits, not merely approximate them.
  EXPECT_EQ(a.meanBandwidthMBps(), b.meanBandwidthMBps()) << what;
  EXPECT_EQ(a.meanLatency(), b.meanLatency()) << what;
  EXPECT_EQ(a.latencyStdDev(), b.latencyStdDev()) << what;
  EXPECT_EQ(a.meanIoOverhead(), b.meanIoOverhead()) << what;
  EXPECT_EQ(a.meanReceptionOverhead(), b.meanReceptionOverhead()) << what;
  for (const double p : {0.0, 50.0, 90.0, 100.0}) {
    EXPECT_EQ(a.latencyPercentile(p), b.latencyPercentile(p)) << what;
  }
}

TEST(ExperimentRunner, ParallelRunIsBitIdenticalToSerialForAllSchemes) {
  auto cfg = smallConfig();
  cfg.trials = 5;
  for (const auto kind :
       {client::SchemeKind::kRaid0, client::SchemeKind::kRRaidS,
        client::SchemeKind::kRRaidA, client::SchemeKind::kRobuStore}) {
    ExperimentRunner runner(cfg);
    const auto serial = runner.run(kind, withThreads(1));
    for (const unsigned threads : {2u, 8u}) {
      const auto parallel = runner.run(kind, withThreads(threads));
      expectBitIdentical(serial, parallel, client::schemeName(kind));
    }
  }
}

TEST(ExperimentRunner, ParallelRunAllIsBitIdenticalToSerial) {
  auto cfg = smallConfig();
  cfg.trials = 4;
  ExperimentRunner runner(cfg);
  const auto serial = runner.runAll(withThreads(1));
  const auto parallel = runner.runAll(withThreads(8));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].kind, parallel[i].kind);
    expectBitIdentical(serial[i].aggregate, parallel[i].aggregate,
                       client::schemeName(serial[i].kind));
  }
}

TEST(ExperimentRunner, ParallelMatchesSerialUnderBackgroundLoad) {
  // Background workloads exercise the per-trial cluster reconstruction
  // (homogeneous, static heterogeneous, and per-trial heterogeneous).
  for (const auto bg : {ExperimentConfig::Background::kHomogeneous,
                        ExperimentConfig::Background::kHeterogeneous,
                        ExperimentConfig::Background::kHeterogeneousStatic}) {
    auto cfg = smallConfig();
    cfg.background = bg;
    cfg.bg_interval = 40 * kMilliseconds;
    ExperimentRunner runner(cfg);
    const auto serial =
        runner.run(client::SchemeKind::kRobuStore, withThreads(1));
    const auto parallel =
        runner.run(client::SchemeKind::kRobuStore, withThreads(8));
    expectBitIdentical(serial, parallel, "background");
  }
}

TEST(ExperimentRunner, RunTrialIsPureInItsArguments) {
  const auto cfg = smallConfig();
  for (std::uint32_t t = 0; t < cfg.trials; ++t) {
    const auto a =
        ExperimentRunner::runTrial(cfg, client::SchemeKind::kRobuStore, t);
    const auto b =
        ExperimentRunner::runTrial(cfg, client::SchemeKind::kRobuStore, t);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.network_bytes, b.network_bytes);
    EXPECT_EQ(a.blocks_received, b.blocks_received);
    EXPECT_EQ(a.complete, b.complete);
  }
}

TEST(ExperimentRunner, CoupledExperimentsIgnoreThreadCount) {
  // reuse_file couples trials through warm filer caches; the runner must
  // fall back to sequential execution no matter the requested threads.
  auto cfg = smallConfig();
  cfg.reuse_file = true;
  cfg.cache.enabled = true;
  ASSERT_TRUE(ExperimentRunner::trialsAreCoupled(cfg));
  ExperimentRunner a(cfg);
  ExperimentRunner b(cfg);
  const auto serial =
      a.run(client::SchemeKind::kRobuStore, withThreads(1));
  const auto parallel =
      b.run(client::SchemeKind::kRobuStore, withThreads(8));
  expectBitIdentical(serial, parallel, "coupled");
}

TEST(ExperimentRunner, OnTrialCallbackArrivesInTrialOrder) {
  auto cfg = smallConfig();
  cfg.trials = 6;
  ExperimentRunner runner(cfg);
  std::vector<std::uint32_t> seen;
  RunOptions options;
  options.threads = 4;
  options.on_trial = [&](client::SchemeKind kind, std::uint32_t trial,
                         const metrics::AccessMetrics& m) {
    EXPECT_EQ(kind, client::SchemeKind::kRRaidA);
    EXPECT_TRUE(m.complete);
    seen.push_back(trial);
  };
  const auto agg = runner.run(client::SchemeKind::kRRaidA, options);
  ASSERT_EQ(seen.size(), cfg.trials);
  for (std::uint32_t t = 0; t < cfg.trials; ++t) EXPECT_EQ(seen[t], t);
  EXPECT_EQ(agg.trials() + agg.incompleteCount(), cfg.trials);
}

TEST(ExperimentRunner, RunMatchesTheRunAllEntryBitForBit) {
  // run(kind) and runAll() share one scheme x trial grid: the single
  // scheme's aggregate must equal its runAll() row exactly, for
  // independent trials and for coupled (reuse_file) ones.
  auto independent = smallConfig();
  auto coupled = smallConfig();
  coupled.reuse_file = true;
  coupled.cache.enabled = true;
  ASSERT_FALSE(ExperimentRunner::trialsAreCoupled(independent));
  ASSERT_TRUE(ExperimentRunner::trialsAreCoupled(coupled));
  for (const auto& cfg : {independent, coupled}) {
    ExperimentRunner runner(cfg);
    RunOptions grid;
    grid.threads = 4;
    RunOptions single;
    single.threads = 2;
    const auto all = runner.runAll(grid);
    ASSERT_EQ(all.size(), 4u);
    for (const auto& row : all) {
      expectBitIdentical(runner.run(row.kind, single), row.aggregate,
                         client::schemeName(row.kind));
    }
  }
}

/// Disks of `cluster` that received at least one load report.
std::size_t reportedDisks(client::Cluster& cluster) {
  std::size_t n = 0;
  for (const auto& [id, d] : cluster.metadata().disks()) {
    if (d.last_report > 0.0) ++n;
  }
  return n;
}

TEST(ExperimentRunner, CoupledFailedWriteIsAggregatedOnceWithoutLoadReport) {
  auto cfg = smallConfig();
  cfg.op = ExperimentConfig::Op::kReadAfterWrite;
  cfg.metadata_disk_selection = true;
  ASSERT_TRUE(ExperimentRunner::trialsAreCoupled(cfg));
  const auto runOnFreshCluster = [](const ExperimentConfig& c) {
    sim::Engine engine;
    client::ClusterConfig cc;
    cc.num_servers = c.num_servers;
    cc.server.disks_per_server = c.disks_per_server;
    client::Cluster cluster(engine, cc, Rng(c.seed));
    const auto per_trial = ExperimentRunner::runCoupled(
        c, client::SchemeKind::kRobuStore, cluster);
    EXPECT_EQ(per_trial.size(), c.trials);
    return std::pair{per_trial, reportedDisks(cluster)};
  };

  // Control: completed read-after-writes report on their access disks.
  const auto [ok_trials, ok_reported] = runOnFreshCluster(cfg);
  for (const auto& m : ok_trials) EXPECT_TRUE(m.complete);
  EXPECT_GT(ok_reported, 0u);

  // A tiny timeout fails every write: no read follows, and no trial
  // reports load to the metadata server.
  cfg.access.timeout = 1e-6;
  const auto [failed_trials, failed_reported] = runOnFreshCluster(cfg);
  for (const auto& m : failed_trials) EXPECT_FALSE(m.complete);
  EXPECT_EQ(failed_reported, 0u);

  // Through the runner, each failed trial reaches the hook and the
  // aggregate exactly once.
  ExperimentRunner runner(cfg);
  std::vector<std::uint32_t> seen;
  RunOptions options;
  options.on_trial = [&](client::SchemeKind, std::uint32_t trial,
                         const metrics::AccessMetrics& m) {
    EXPECT_FALSE(m.complete);
    seen.push_back(trial);
  };
  const auto agg = runner.run(client::SchemeKind::kRobuStore, options);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(agg.trials(), 0u);
  EXPECT_EQ(agg.incompleteCount(), cfg.trials);
}

}  // namespace
}  // namespace robustore::core
