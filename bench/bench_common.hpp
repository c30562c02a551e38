#pragma once

// Shared plumbing for the figure/table reproduction binaries: consistent
// headers, row formatting, and the standard four-scheme sweep loop.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_env.hpp"
#include "reporter.hpp"

namespace robustore::bench {

inline constexpr client::SchemeKind kAllSchemes[] = {
    client::SchemeKind::kRaid0, client::SchemeKind::kRRaidS,
    client::SchemeKind::kRRaidA, client::SchemeKind::kRobuStore};

inline void banner(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline std::uint32_t defaultTrials(std::uint32_t fallback = 10) {
  return core::RunEnv::trials(fallback);
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
  // ROBUSTORE_TRACE=1 turns on per-stage latency decomposition for every
  // bench (stage_* fields in the JSON trajectory, stage tables in the
  // human output). Tracing never touches a random stream, so the paper
  // metrics are bit-identical either way.
  if (core::RunEnv::trace()) cfg.trace = true;
  // ROBUSTORE_SAMPLE_DT=<ms> turns on per-trial telemetry sampling. The
  // sampler rides the engine's time observer (zero events, zero rng
  // draws), so every figure is bit-identical with sampling on or off.
  cfg.sample_dt = core::RunEnv::sampleDt();
  // ROBUSTORE_FLIGHT=1 attaches the always-on flight recorder to every
  // trial. It schedules no events and draws no rng, so simulated results
  // stay bitwise identical — but collect() then has per-access stage
  // sums available, so stage_* quantile columns appear in the reports
  // (that is the point: tail attribution only when asked for).
  if (core::RunEnv::flight()) cfg.flight = true;
  return cfg;
}

}  // namespace robustore::bench
