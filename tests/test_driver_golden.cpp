// Golden digests of every experiment driver's simulated output on small
// configurations (4 servers x 4 disks, k = 16). Each digest folds every
// field a driver reports — per-access metrics, stage sums, campaign
// counters, chaos digests — through FNV-1a, so any drift in event order,
// rng draws or observer wiring shows up as a changed constant. The
// constants were computed once and must only change together with a
// deliberate, documented change to simulated behaviour.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "core/experiment.hpp"
#include "core/multi_client.hpp"

namespace robustore {
namespace {

using core::ExperimentConfig;
using core::ExperimentRunner;

struct Fnv {
  std::uint64_t hash = 1469598103934665603ULL;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ (v & 0xffu)) * 1099511628211ULL;
      v >>= 8;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

  void mix(const trace::StageBreakdown& b) {
    for (std::size_t s = 0; s < trace::kNumStages; ++s) {
      mix(b.seconds[s]);
      mix(static_cast<std::uint64_t>(b.spans[s]));
    }
  }

  void mix(const metrics::AccessMetrics& m) {
    mix(m.latency);
    mix(static_cast<std::uint64_t>(m.data_bytes));
    mix(static_cast<std::uint64_t>(m.network_bytes));
    mix(static_cast<std::uint64_t>(m.blocks_received));
    mix(static_cast<std::uint64_t>(m.blocks_original));
    mix(static_cast<std::uint64_t>(m.cache_hits));
    mix(static_cast<std::uint64_t>(m.complete ? 1 : 0));
    mix(static_cast<std::uint64_t>(m.failures_survived));
    mix(static_cast<std::uint64_t>(m.reissued_requests));
    mix(m.time_lost_to_failures);
    mix(m.stages);
  }

  void mix(const metrics::AccessAggregate& a) {
    mix(static_cast<std::uint64_t>(a.trials()));
    mix(static_cast<std::uint64_t>(a.incompleteCount()));
    mix(a.meanBandwidthMBps());
    mix(a.meanLatency());
    mix(a.latencyStdDev());
    mix(a.meanIoOverhead());
    mix(a.meanReceptionOverhead());
    mix(a.meanCacheHits());
    mix(a.meanFailuresSurvived());
    mix(a.meanReissuedRequests());
    mix(a.meanTimeLostToFailures());
    mix(a.stageTotals());
  }
};

constexpr client::SchemeKind kSchemes[] = {
    client::SchemeKind::kRaid0, client::SchemeKind::kRRaidS,
    client::SchemeKind::kRRaidA, client::SchemeKind::kRobuStore};

/// 4 x 4 disks, 8-disk accesses of k = 16 x 256 KiB blocks, per-access
/// heterogeneous background, and both stochastic fault sources armed so
/// the fault and churn streams are pinned too.
ExperimentConfig faultyConfig(ExperimentConfig::Op op) {
  ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.disks_per_access = 8;
  cfg.access.k = 16;
  cfg.access.block_bytes = 256 * kKiB;
  cfg.access.redundancy = 2.0;
  cfg.access.timeout = 30.0;
  cfg.access.request_timeout = 2.0;
  cfg.access.max_reissues = 3;
  cfg.background = ExperimentConfig::Background::kHeterogeneous;
  cfg.faults.model.straggler_prob = 0.25;
  cfg.faults.model.crash_prob = 0.2;
  cfg.faults.model.mean_outage = 0.05;
  cfg.faults.model.horizon = 0.2;
  cfg.faults.churn.failure_rate = 1.0;
  cfg.faults.churn.replacement_delay = 0.05;
  cfg.faults.churn.horizon = 0.3;
  cfg.op = op;
  cfg.trials = 2;
  cfg.seed = 13;
  return cfg;
}

/// runTrial over the 4 schemes x trials of `cfg`, in order; `traced`
/// hands every trial a tracer through trace_out.
std::uint64_t trialDigest(const ExperimentConfig& cfg, bool traced = false) {
  Fnv fnv;
  for (const auto kind : kSchemes) {
    for (std::uint32_t t = 0; t < cfg.trials; ++t) {
      trace::Tracer tracer;
      fnv.mix(ExperimentRunner::runTrial(cfg, kind, t,
                                         traced ? &tracer : nullptr));
    }
  }
  return fnv.hash;
}

/// Per-trial metrics through the runner's ordered reduction, plus each
/// scheme's aggregate — the only entry point for coupled experiments.
std::uint64_t runnerDigest(const ExperimentConfig& cfg) {
  Fnv fnv;
  core::RunOptions options;
  options.threads = 1;
  options.on_trial = [&](client::SchemeKind kind, std::uint32_t trial,
                         const metrics::AccessMetrics& m) {
    fnv.mix(static_cast<std::uint64_t>(kind));
    fnv.mix(static_cast<std::uint64_t>(trial));
    fnv.mix(m);
  };
  ExperimentRunner runner(cfg);
  for (const auto& row : runner.runAll(options)) fnv.mix(row.aggregate);
  return fnv.hash;
}

std::uint64_t multiClientDigest(const core::MultiClientConfig& cfg) {
  const core::MultiClientResult r = core::MultiClientExperiment(cfg).run();
  Fnv fnv;
  fnv.mix(r.accesses);
  fnv.mix(r.system_throughput_mbps);
  fnv.mix(r.makespan);
  fnv.mix(r.admission_refusals);
  fnv.mix(static_cast<std::uint64_t>(r.clients_completed));
  fnv.mix(r.accesses_completed);
  fnv.mix(r.events_scheduled);
  fnv.mix(r.events_fired);
  fnv.mix(static_cast<std::uint64_t>(r.peak_live_events));
  fnv.mix(r.drained_at);
  if (r.flight != nullptr) {
    fnv.mix(r.flight->accessesBegun());
    fnv.mix(r.flight->accessesClosed());
    fnv.mix(r.flight->eventsSeen());
    for (const auto& rec : r.flight->retained()) {
      fnv.mix(rec->stream);
      fnv.mix(rec->latency());
      fnv.mix(rec->stages);
    }
  }
  return fnv.hash;
}

core::MultiClientConfig multiClientConfig() {
  core::MultiClientConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.num_clients = 6;
  cfg.disks_per_access = 4;
  cfg.access.k = 16;
  cfg.access.block_bytes = 256 * kKiB;
  cfg.access.redundancy = 2.0;
  cfg.layout.heterogeneous = false;
  cfg.seed = 11;
  return cfg;
}

TEST(DriverGolden, RunTrialReads) {
  EXPECT_EQ(trialDigest(faultyConfig(ExperimentConfig::Op::kRead)),
            0x2493393c7ad852f0ULL);
}

TEST(DriverGolden, RunTrialWrites) {
  EXPECT_EQ(trialDigest(faultyConfig(ExperimentConfig::Op::kWrite)),
            0x5138e6e3741b926bULL);
}

TEST(DriverGolden, RunTrialReadAfterWrites) {
  EXPECT_EQ(trialDigest(faultyConfig(ExperimentConfig::Op::kReadAfterWrite)),
            0xff9dff90e560e663ULL);
}

TEST(DriverGolden, RunTrialStageSumsTraced) {
  Fnv fnv;
  for (const auto op :
       {ExperimentConfig::Op::kRead, ExperimentConfig::Op::kWrite,
        ExperimentConfig::Op::kReadAfterWrite}) {
    fnv.mix(trialDigest(faultyConfig(op), /*traced=*/true));
  }
  EXPECT_EQ(fnv.hash, 0x77eb846caf043173ULL);
}

TEST(DriverGolden, RunTrialStageSumsFlightRecorded) {
  Fnv fnv;
  for (const auto op :
       {ExperimentConfig::Op::kRead, ExperimentConfig::Op::kWrite,
        ExperimentConfig::Op::kReadAfterWrite}) {
    ExperimentConfig cfg = faultyConfig(op);
    cfg.flight = true;
    fnv.mix(trialDigest(cfg));
  }
  // Equal to the traced digest: writes open a recorder ring too.
  EXPECT_EQ(fnv.hash, 0x77eb846caf043173ULL);
}

TEST(DriverGolden, CoupledReuseFile) {
  ExperimentConfig cfg = faultyConfig(ExperimentConfig::Op::kRead);
  cfg.faults = {};
  cfg.cache.enabled = true;
  cfg.cache.capacity = 64 * kMiB;
  cfg.reuse_file = true;
  cfg.trials = 3;
  EXPECT_EQ(runnerDigest(cfg), 0x8a1180ac0f69245cULL);
}

TEST(DriverGolden, CoupledMetadataSelection) {
  ExperimentConfig cfg = faultyConfig(ExperimentConfig::Op::kReadAfterWrite);
  cfg.faults = {};
  cfg.background = ExperimentConfig::Background::kHeterogeneousStatic;
  cfg.metadata_disk_selection = true;
  cfg.trials = 3;
  EXPECT_EQ(runnerDigest(cfg), 0xd8455df7e84c695cULL);
}

TEST(DriverGolden, CoupledTraced) {
  ExperimentConfig cfg = faultyConfig(ExperimentConfig::Op::kReadAfterWrite);
  cfg.faults = {};
  cfg.metadata_disk_selection = true;
  cfg.flight = true;
  cfg.trials = 2;
  EXPECT_EQ(runnerDigest(cfg), 0xe489ebba8cc0bc42ULL);
}

TEST(DriverGolden, MultiClientSingleAccessWithAdmission) {
  core::MultiClientConfig cfg = multiClientConfig();
  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  EXPECT_EQ(multiClientDigest(cfg), 0x19983a71c5e469c1ULL);
}

TEST(DriverGolden, MultiClientCampaignFastSelection) {
  core::MultiClientConfig cfg = multiClientConfig();
  cfg.accesses_per_client = 3;
  cfg.fast_selection = true;
  cfg.think_time = 10 * kMilliseconds;
  EXPECT_EQ(multiClientDigest(cfg), 0xa150fbc88f30b044ULL);
}

TEST(DriverGolden, MultiClientCampaignFlightRecorded) {
  core::MultiClientConfig cfg = multiClientConfig();
  cfg.accesses_per_client = 3;
  cfg.flight = true;
  EXPECT_EQ(multiClientDigest(cfg), 0x33e30dbfe86fd47eULL);
}

TEST(DriverGolden, ChaosCampaignSeeds0To7) {
  Fnv fnv;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const chaos::CampaignResult r = chaos::runCampaign(chaos::planFromSeed(seed));
    fnv.mix(r.digest);
  }
  EXPECT_EQ(fnv.hash, 0x89e1f5213d4cd520ULL);
}

}  // namespace
}  // namespace robustore
