// The telemetry determinism guard: every figure a bench emits is byte
// identical whether its trials are sampled or not and whatever the thread
// count. This is the contract that makes `robustore_cli timeline` show the
// very trial a figure ran — the sampler rides the engine's time observer
// (zero events, zero rng draws), so it cannot perturb a single simulated
// timestamp.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/reporter.hpp"
#include "core/experiment.hpp"
#include "core/trial_pool.hpp"
#include "telemetry/host_profiler.hpp"

namespace robustore {
namespace {

core::ExperimentConfig sweepConfig() {
  core::ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.disks_per_access = 8;
  cfg.access.k = 16;
  cfg.trials = 3;
  cfg.seed = 1234;
  // A stochastic fault mix makes this a real guard: the failure-sweep
  // paths (injector events, reissues, degraded metrics) all run.
  cfg.faults.model.crash_prob = 0.2;
  cfg.faults.model.stall_prob = 0.2;
  cfg.faults.model.horizon = 0.2;
  return cfg;
}

/// Reporter JSON for one full mini-sweep at the given thread count — the
/// exact bytes a bench binary would write. `sample_dt` 0 runs the sweep
/// through the runner; otherwise every trial is sampled on that grid
/// through runTrial's telemetry_out, fanned out on a pool of `threads`.
std::string reportJson(SimTime sample_dt, unsigned threads) {
  const core::ExperimentConfig cfg = sweepConfig();
  core::ExperimentRunner runner(cfg);
  core::RunOptions options;
  options.threads = threads;
  bench::Reporter reporter("determinism_guard", "case");
  for (const auto kind :
       {client::SchemeKind::kRaid0, client::SchemeKind::kRobuStore}) {
    if (sample_dt <= 0.0) {
      reporter.add("mini", client::schemeName(kind), runner.run(kind, options));
      continue;
    }
    std::vector<metrics::AccessMetrics> trials(cfg.trials);
    std::vector<telemetry::TrialTelemetry> series(cfg.trials);
    core::TrialPool pool(threads);
    pool.forEachIndex(cfg.trials, [&](std::uint32_t t) {
      series[t].sample_dt = sample_dt;
      trials[t] = core::ExperimentRunner::runTrial(cfg, kind, t, nullptr,
                                                   &series[t]);
    });
    metrics::AccessAggregate agg;
    for (std::uint32_t t = 0; t < cfg.trials; ++t) {
      EXPECT_GT(series[t].timeline.totalPoints(), 0u) << "trial " << t;
      agg.add(trials[t]);
    }
    reporter.add("mini", client::schemeName(kind), agg);
  }
  return reporter.json();
}

TEST(TelemetryDeterminism, FigureBytesIdenticalAcrossSamplingAndThreads) {
  telemetry::HostProfiler::resetGlobal();  // keep host_profile out of JSON
  const std::string baseline = reportJson(/*sample_dt=*/0.0, /*threads=*/1);
  EXPECT_EQ(baseline, reportJson(0.0, 4)) << "threads changed the figures";
  EXPECT_EQ(baseline, reportJson(0.005, 1)) << "sampling changed the figures";
  EXPECT_EQ(baseline, reportJson(0.005, 4))
      << "sampling + threads changed the figures";
}

TEST(TelemetryDeterminism, SampledTimelinesIdenticalAcrossTrialsOrder) {
  // The per-trial timeline itself is pure in (config, kind, trial): two
  // independent runs produce identical series point-for-point.
  const core::ExperimentConfig cfg = sweepConfig();
  telemetry::TrialTelemetry a;
  telemetry::TrialTelemetry b;
  a.sample_dt = b.sample_dt = 0.005;
  (void)core::ExperimentRunner::runTrial(cfg, client::SchemeKind::kRobuStore,
                                         1, nullptr, &a);
  (void)core::ExperimentRunner::runTrial(cfg, client::SchemeKind::kRobuStore,
                                         1, nullptr, &b);
  EXPECT_EQ(a.timeline.toCsv(), b.timeline.toCsv());
  EXPECT_EQ(a.registry.prometheusText(), b.registry.prometheusText());
}

TEST(ReporterCacheHits, EmittedOnlyWhenObserved) {
  telemetry::HostProfiler::resetGlobal();
  metrics::AccessMetrics m;
  m.complete = true;
  m.latency = 1.0;
  m.data_bytes = kMiB;
  m.blocks_original = 1;
  m.blocks_received = 1;

  metrics::AccessAggregate without;
  without.add(m);
  bench::Reporter cold("cache_cold", "x");
  cold.add("p", "raid0", without);
  EXPECT_EQ(cold.json().find("cache_hits_mean"), std::string::npos);

  m.cache_hits = 12;
  metrics::AccessAggregate with;
  with.add(m);
  bench::Reporter warm("cache_warm", "x");
  warm.add("p", "raid0", with);
  const std::string json = warm.json();
  EXPECT_NE(json.find("\"cache_hits_mean\": 12"), std::string::npos) << json;
}

TEST(ReporterHostProfile, AppearsOnlyWhenTrialsWereProfiled) {
  telemetry::HostProfiler::resetGlobal();
  bench::Reporter reporter("hp", "x");
  EXPECT_EQ(reporter.json().find("host_profile"), std::string::npos);

  {
    const telemetry::HostProfiler::TrialGuard guard(/*active=*/true);
    const telemetry::HostProfiler::Scope s(
        telemetry::HostScope::kEngineDispatch);
  }
  const std::string json = reporter.json();
  EXPECT_NE(json.find("\"host_profile\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"trials\": 1"), std::string::npos);
  telemetry::HostProfiler::resetGlobal();
}

}  // namespace
}  // namespace robustore
