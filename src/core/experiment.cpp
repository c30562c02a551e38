#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "core/stack.hpp"
#include "core/telemetry_probes.hpp"
#include "core/trial_pool.hpp"

namespace robustore::core {
namespace {

/// The experiment's cluster. Its stream derives from config.seed alone, so
/// every trial rebuilds an identical testbed; only the trial stream (disk
/// selection, layout draws) varies with the trial index — and it is the
/// same stream for every scheme, so schemes see comparable trials.
client::ClusterConfig clusterConfig(const ExperimentConfig& config) {
  client::ClusterConfig cc;
  cc.num_servers = config.num_servers;
  cc.server.disks_per_server = config.disks_per_server;
  cc.server.disk_params = config.disk_params;
  cc.server.cache = config.cache;
  cc.server.round_trip = config.round_trip;
  cc.server.nic_bandwidth = config.nic_bandwidth;
  cc.client_bandwidth = config.client_bandwidth;
  return cc;
}

void applyExperimentBackground(const ExperimentConfig& config,
                               client::Cluster& cluster) {
  if (config.background == ExperimentConfig::Background::kHomogeneous) {
    workload::BackgroundConfig bg;
    bg.mean_interval = config.bg_interval;
    cluster.setUniformBackground(bg);
  } else if (config.background ==
             ExperimentConfig::Background::kHeterogeneousStatic) {
    Rng bg_rng(config.seed ^ salt::kStaticBackground);
    cluster.randomizeBackground(config.bg_interval_min,
                                config.bg_interval_max, bg_rng);
  }
}

/// The trial's access disks. The trial stream first redraws per-access
/// heterogeneous background intervals (§6.3.2), then picks the disks:
/// uniformly at random, or through the metadata server's §5.3.1 policy.
std::vector<std::uint32_t> selectTrialDisks(const ExperimentConfig& config,
                                            client::Cluster& cluster,
                                            Rng& trial_rng) {
  if (config.background == ExperimentConfig::Background::kHeterogeneous) {
    cluster.randomizeBackground(config.bg_interval_min, config.bg_interval_max,
                                trial_rng);
  }
  return config.metadata_disk_selection
             ? cluster.metadata().selectDisks(config.disks_per_access,
                                              meta::QosOptions{}, trial_rng)
             : cluster.selectDisks(config.disks_per_access, trial_rng);
}

struct TrialAccess {
  metrics::AccessMetrics metrics;
  /// A read-after-write whose write did not complete: `metrics` are the
  /// write's, and no read followed.
  bool write_failed = false;
};

/// The one access a trial performs (config.op). `reused`, when non-null,
/// holds a reuse_file read's file across coupled trials: planned on first
/// use, read again by every later trial.
TrialAccess runAccess(const ExperimentConfig& config, client::Scheme& scheme,
                      std::span<const std::uint32_t> disks, Rng& trial_rng,
                      std::optional<client::StoredFile>* reused) {
  switch (config.op) {
    case ExperimentConfig::Op::kRead: {
      std::optional<client::StoredFile> fresh;
      auto& file = reused != nullptr ? *reused : fresh;
      if (!file) {
        file = scheme.planFile(config.access, disks, config.layout, trial_rng);
      }
      return {scheme.read(*file, config.access)};
    }
    case ExperimentConfig::Op::kWrite:
      return {scheme.write(config.access, disks, config.layout, trial_rng)};
    case ExperimentConfig::Op::kReadAfterWrite: {
      client::StoredFile file;
      const metrics::AccessMetrics wm = scheme.write(
          config.access, disks, config.layout, trial_rng, &file);
      if (!wm.complete) return {wm, true};
      if (config.redraw_layout_after_write) {
        file.redrawLayouts(config.layout, trial_rng);
      }
      return {scheme.read(file, config.access)};
    }
  }
  return {};
}

/// Arms the trial's fault schedule against its selected access disks.
/// Fault and churn draws live on their own streams, pure in (seed, trial)
/// and independent of each other, so enabling either never perturbs disk
/// selection, layout draws or the other's schedule.
void armFaults(const ExperimentConfig& config, std::uint32_t trial_index,
               Stack& stack, std::span<const std::uint32_t> disks) {
  if (!config.faults.enabled()) return;
  const auto num_disks = static_cast<std::uint32_t>(disks.size());
  fault::FaultInjector& injector =
      stack.injectFaults({disks.begin(), disks.end()});
  for (const auto& spec : config.faults.scripted) {
    ROBUSTORE_EXPECTS(spec.disk < num_disks,
                      "scripted fault targets a disk outside the access");
    injector.schedule(spec);
  }
  if (config.faults.model.enabled()) {
    Rng rng = streamRng(config.seed ^ salt::kFaultModel, trial_index);
    injector.scheduleAll(fault::FaultInjector::drawSchedule(
        config.faults.model, num_disks, rng));
  }
  if (config.faults.churn.enabled()) {
    Rng rng = streamRng(config.seed ^ salt::kChurn, trial_index);
    injector.scheduleChurn(fault::FaultInjector::drawChurn(
        config.faults.churn, num_disks, rng));
  }
}

}  // namespace

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {
  ROBUSTORE_EXPECTS(config_.trials >= 1, "experiment needs >= 1 trial");
  ROBUSTORE_EXPECTS(
      config_.disks_per_access <=
          config_.num_servers * config_.disks_per_server,
      "cannot access more disks than the cluster has");
}

metrics::AccessMetrics ExperimentRunner::runTrial(
    const ExperimentConfig& config, client::SchemeKind kind,
    std::uint32_t trial_index, trace::Tracer* trace_out,
    telemetry::TrialTelemetry* telemetry_out,
    trace::FlightRecorder* flight_out) {
  ROBUSTORE_EXPECTS(!trialsAreCoupled(config),
                    "coupled experiments cannot run as independent trials");
  ROBUSTORE_EXPECTS(flight_out == nullptr || config.flight,
                    "flight_out needs config.flight");
  ROBUSTORE_EXPECTS(telemetry_out == nullptr || telemetry_out->sample_dt > 0.0,
                    "telemetry_out needs a positive sample_dt");
  // One trial = one worker thread: the guard scopes the host profile of
  // everything below to this trial and merges it into the global snapshot
  // on exit (no-op unless ROBUSTORE_HOST_PROFILE is set).
  const telemetry::HostProfiler::TrialGuard host_profile;
  Stack stack(clusterConfig(config), Rng(config.seed ^ salt::kCluster));
  client::Cluster& cluster = stack.cluster();
  applyExperimentBackground(config, cluster);
  auto scheme = client::makeScheme(kind, cluster, config.lt, config.codec);
  // Trial-local observers keep records out of shared state; the caller
  // merges per-trial tracers and recorders in trial order, which is what
  // makes observed parallel runs byte-identical to serial ones.
  stack.observe(trace_out != nullptr, config.flight, config.flight_config);

  Rng trial_rng = streamRng(config.seed, trial_index);
  const auto disks = selectTrialDisks(config, cluster, trial_rng);
  armFaults(config, trial_index, stack, disks);

  // Sampling draws no events or rng.
  telemetry::PeriodicSampler* sampler = nullptr;
  if (telemetry_out != nullptr) {
    sampler = &stack.sample(telemetry_out->sample_dt, telemetry_out->timeline);
    attachStandardProbes(*sampler, cluster, *scheme, disks, stack.injector());
    sampler->sampleNow(stack.engine().now());  // t=0 baseline
  }

  const metrics::AccessMetrics m =
      runAccess(config, *scheme, disks, trial_rng, nullptr).metrics;
  if (sampler != nullptr) {
    sampler->sampleNow(stack.engine().now());  // final drained state
    telemetry::snapshotToRegistry(telemetry_out->timeline,
                                  telemetry_out->registry);
  }
  if (trace_out != nullptr) trace_out->append(*stack.tracer());
  if (flight_out != nullptr) flight_out->absorb(*stack.recorder());
  return m;
}

std::vector<metrics::AccessMetrics> ExperimentRunner::runCoupled(
    const ExperimentConfig& config, client::SchemeKind kind,
    client::Cluster& cluster) {
  auto scheme = client::makeScheme(kind, cluster, config.lt, config.codec);
  std::vector<metrics::AccessMetrics> per_trial;
  per_trial.reserve(config.trials);
  std::optional<client::StoredFile> reused;
  std::vector<SimTime> bg_busy_before(cluster.numDisks(), 0.0);
  for (std::uint32_t t = 0; t < config.trials; ++t) {
    Rng trial_rng = streamRng(config.seed, t);
    const auto disks = selectTrialDisks(config, cluster, trial_rng);
    for (const auto d : disks) {
      bg_busy_before[d] =
          cluster.disk(d).busyTime(disk::Priority::kBackground);
    }
    const SimTime access_start = cluster.engine().now();
    const TrialAccess access = runAccess(config, *scheme, disks, trial_rng,
                                         config.reuse_file ? &reused : nullptr);
    per_trial.push_back(access.metrics);
    // A read-after-write whose write failed is aggregated but sends no
    // load report.
    if (access.write_failed) continue;

    // §4.2: clients report what they observed of each disk back to the
    // metadata server, here the fraction of the access window the disk
    // spent on competing work.
    const SimTime window = cluster.engine().now() - access_start;
    if (window > 0) {
      for (const auto d : disks) {
        const SimTime busy =
            cluster.disk(d).busyTime(disk::Priority::kBackground) -
            bg_busy_before[d];
        cluster.metadata().reportLoad(d, busy / window,
                                      cluster.engine().now());
      }
    }
  }
  return per_trial;
}

metrics::AccessAggregate ExperimentRunner::run(client::SchemeKind kind,
                                               const RunOptions& options) {
  return runGrid({&kind, 1}, options).front().aggregate;
}

std::vector<ExperimentRunner::SchemeResult> ExperimentRunner::runAll(
    const RunOptions& options) {
  return runGrid(client::kAllSchemes, options);
}

std::vector<ExperimentRunner::SchemeResult> ExperimentRunner::runGrid(
    std::span<const client::SchemeKind> kinds, const RunOptions& options) {
  const std::uint32_t trials = config_.trials;
  const auto jobs = static_cast<std::uint32_t>(kinds.size()) * trials;
  std::vector<metrics::AccessMetrics> grid(jobs);
  const bool coupled = trialsAreCoupled(config_);
  const bool want_flight =
      !coupled && config_.flight && options.on_flight != nullptr;
  std::vector<std::unique_ptr<trace::FlightRecorder>> flights;
  if (want_flight) flights.resize(jobs);

  if (coupled) {
    // Each scheme's trials run in order against one long-lived cluster.
    for (std::size_t s = 0; s < kinds.size(); ++s) {
      Stack stack(clusterConfig(config_), Rng(config_.seed ^ salt::kCluster));
      applyExperimentBackground(config_, stack.cluster());
      // One recorder for the whole run: per-access stage sums still
      // separate cleanly because every access has its own stream id.
      stack.observe(/*trace=*/false, config_.flight, config_.flight_config);
      std::ranges::move(runCoupled(config_, kinds[s], stack.cluster()),
                        grid.begin() + static_cast<std::ptrdiff_t>(s * trials));
    }
  } else {
    // Fan the whole scheme x trial grid out at once so slow schemes do not
    // serialize behind fast ones.
    const auto runCell = [&](std::uint32_t i) {
      if (want_flight) {
        flights[i] =
            std::make_unique<trace::FlightRecorder>(config_.flight_config);
      }
      grid[i] = runTrial(config_, kinds[i / trials], i % trials, nullptr,
                         nullptr, want_flight ? flights[i].get() : nullptr);
    };
    const unsigned threads = std::min(
        options.threads == 0 ? TrialPool::defaultThreads() : options.threads,
        jobs);
    if (threads <= 1) {
      for (std::uint32_t i = 0; i < jobs; ++i) runCell(i);
    } else {
      TrialPool pool(threads);
      pool.forEachIndex(jobs, runCell);
    }
  }

  // Ordered reduction: identical to the serial loop for any thread count.
  std::vector<SchemeResult> results;
  for (std::size_t s = 0; s < kinds.size(); ++s) {
    metrics::AccessAggregate agg;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const std::size_t i = s * trials + t;
      if (options.on_trial) options.on_trial(kinds[s], t, grid[i]);
      if (want_flight) options.on_flight(kinds[s], t, *flights[i]);
      agg.add(grid[i]);
    }
    results.push_back(SchemeResult{kinds[s], std::move(agg)});
  }
  return results;
}

}  // namespace robustore::core
