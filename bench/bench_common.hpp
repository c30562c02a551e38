#pragma once

// Shared plumbing for the figure/table reproduction binaries: consistent
// headers, row formatting, and the standard four-scheme sweep loop.

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_env.hpp"
#include "reporter.hpp"

namespace robustore::bench {

using client::kAllSchemes;

inline void banner(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline std::uint32_t defaultTrials(std::uint32_t fallback = 10) {
  return core::RunEnv::trials(fallback);
}

/// The tiered sweeps' command line: --tier smoke|mid|full, --seed N (the
/// whole value, overriding ROBUSTORE_SEED), --help, and the optional
/// switch `flag`. Returns the exit code when the run should stop — 0
/// after --help, 2 after a bad argument — having printed `usage`.
inline std::optional<int> parseTierArgs(int argc, char** argv,
                                        const char* name,
                                        int (*usage)(std::FILE*, int),
                                        std::string& tier, std::uint64_t& seed,
                                        const char* flag = nullptr,
                                        bool* flag_set = nullptr) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto seed_arg = arg == "--seed" && i + 1 < argc
                              ? core::parseUnsigned(argv[i + 1])
                              : std::nullopt;
    if (arg == "--tier" && i + 1 < argc) {
      tier = argv[++i];
    } else if (seed_arg) {
      seed = *seed_arg;
      ++i;
    } else if (flag != nullptr && arg == flag) {
      *flag_set = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, 0);
    } else {
      std::fprintf(stderr, "%s: bad argument '%s'\n", name, arg.c_str());
      return usage(stderr, 2);
    }
  }
  if (tier != "smoke" && tier != "mid" && tier != "full") {
    std::fprintf(stderr, "%s: unknown tier '%s'\n", name, tier.c_str());
    return usage(stderr, 2);
  }
  return std::nullopt;
}

/// One metric series across a swept parameter, printed per scheme —
/// matching the paper's figure format (x axis = sweep value, one curve
/// per scheme).
struct SweepPoint {
  std::string label;  // x-axis value as text
  core::ExperimentConfig config;
};

/// Runs every scheme at every sweep point and reports the three §6.2.3
/// metrics (bandwidth, latency stddev, I/O overhead) through a Reporter:
/// aligned human tables, plus CSV (ROBUSTORE_CSV) and a BENCH_<id>.json
/// trajectory (ROBUSTORE_JSON). Each point fans its scheme x trial grid
/// out across the trial pool (ROBUSTORE_THREADS, default all cores);
/// results are bit-identical to a serial run.
inline void runSchemeSweep(const char* id, const char* xlabel,
                           const std::vector<SweepPoint>& points,
                           bool include_reception = false) {
  Reporter reporter(id, xlabel);
  for (const auto& point : points) {
    core::ExperimentRunner runner(point.config);
    for (auto& result : runner.runAll()) {
      reporter.add(point.label, client::schemeName(result.kind),
                   result.aggregate);
    }
    std::fflush(stdout);
  }
  reporter.emit(include_reception);
}

/// Sweep without a figure id: the JSON artifact (if requested) is named
/// after the x-axis label.
inline void runSchemeSweep(const char* xlabel,
                           const std::vector<SweepPoint>& points,
                           bool include_reception = false) {
  runSchemeSweep(xlabel, xlabel, points, include_reception);
}

/// Baseline configuration of §6.2.5 scaled for bench wall-clock time:
/// the full 128-disk cluster with 64-disk accesses, 1 MB blocks, 3x
/// redundancy. Data size defaults to 1 GB (K=1024); heavy sweeps may
/// shrink K, which preserves every trend in the paper's figures.
inline core::ExperimentConfig baselineConfig() {
  core::ExperimentConfig cfg;
  cfg.trials = defaultTrials();
  cfg.seed = 20070613;  // arbitrary but fixed: results are reproducible
  // ROBUSTORE_FLIGHT=1 attaches the flight recorder to every trial: the
  // per-stage latency decomposition of reads and writes (stage_* fields
  // in the JSON trajectory, stage tables in the human output). It
  // schedules no events and draws no rng, so the paper metrics are
  // bit-identical either way.
  cfg.flight = core::RunEnv::flight();
  return cfg;
}

/// The failure-sweep testbed: the four schemes reading 128 MB from 16
/// disks with 3x redundancy, a generous access timeout and a per-request
/// watchdog — generous against queueing (RAID-0's striped read tails out
/// near 20 s under the heterogeneous layouts) but small against the
/// access timeout. Fail-stops are re-issued immediately via the
/// failure-notification path; the watchdog only catches silence.
inline core::ExperimentConfig failureSweepConfig() {
  core::ExperimentConfig base = baselineConfig();
  base.num_servers = 4;
  base.disks_per_server = 4;
  base.disks_per_access = 16;
  base.access.k = 128;  // 128 MB: keeps the sweep fast at paper trends
  base.access.redundancy = 3.0;
  base.access.timeout = 120.0;
  base.access.request_timeout = 30.0;
  base.access.max_reissues = 4;
  return base;
}

/// The mid-access fault scenarios over `base`: none, one and two
/// fail-stops, a crash-recover outage, transient stalls, stragglers and a
/// stochastic mix (bench_failure_sweep, bench_tail_attribution).
inline std::vector<SweepPoint> failureScenarios(
    const core::ExperimentConfig& base) {
  const auto scripted = [&](std::initializer_list<fault::FaultSpec> specs) {
    core::ExperimentConfig cfg = base;
    cfg.faults.scripted = specs;
    return cfg;
  };
  using fault::FaultKind;
  const SimTime at = 50.0 * kMilliseconds;  // mid-access
  std::vector<SweepPoint> points;
  points.push_back({"none", base});
  points.push_back(
      {"failstop-1", scripted({{0, FaultKind::kFailStop, at, 0.0, 1.0}})});
  points.push_back(
      {"failstop-2", scripted({{0, FaultKind::kFailStop, at, 0.0, 1.0},
                               {1, FaultKind::kFailStop, at, 0.0, 1.0}})});
  points.push_back({"crash-100ms", scripted({{0, FaultKind::kCrashRecover, at,
                                              100.0 * kMilliseconds, 1.0}})});
  points.push_back(
      {"stall-50ms", scripted({{0, FaultKind::kTransientStall, at,
                                50.0 * kMilliseconds, 1.0},
                               {1, FaultKind::kTransientStall, at,
                                50.0 * kMilliseconds, 1.0}})});
  {
    core::ExperimentConfig cfg = base;
    cfg.faults.model.straggler_prob = 0.25;
    cfg.faults.model.straggler_min = 3.0;
    cfg.faults.model.straggler_max = 6.0;
    points.push_back({"straggler", cfg});
  }
  {
    core::ExperimentConfig cfg = base;
    cfg.faults.model.fail_stop_prob = 0.1;
    cfg.faults.model.crash_prob = 0.1;
    cfg.faults.model.mean_outage = 0.2;
    cfg.faults.model.horizon = 0.2;
    points.push_back({"stochastic", cfg});
  }
  return points;
}

}  // namespace robustore::bench
