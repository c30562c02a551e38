// Tail-latency attribution: the failure-sweep workload (mid-access
// fail-stops, crash/recover outages, transient stalls, stragglers and a
// stochastic mix) re-run with the always-on flight recorder attached, so
// every trial's slowest access survives with its event ring, exact stage
// totals, reissue counters, per-disk busy ledger and the concurrent
// fault log. The pooled accesses are then cut at the p90/p99 latency and
// each tail access is blamed on the stage that most exceeds the pool
// median — yielding one "blame table" per scheme that answers the
// paper's robustness question structurally: RAID-0's tail is the
// slowest disk, the replicated schemes pay reissue backoff, RobuSTore
// trades both for decode time and straggler-insensitive transfers.
//
// Output: aligned human blame tables, plus a BENCH_tail_attribution.json
// artifact (ROBUSTORE_JSON) with both blame cuts and the top outliers
// per scheme. Byte-identical for every ROBUSTORE_THREADS value: the
// flight reduction hook runs in trial order and every tie-break in the
// attribution pipeline is explicit.

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/tail_attribution.hpp"
#include "bench_common.hpp"

namespace {

using namespace robustore;

constexpr std::size_t kNumSchemes = 4;

std::size_t schemeIndex(client::SchemeKind kind) {
  for (std::size_t i = 0; i < kNumSchemes; ++i) {
    if (bench::kAllSchemes[i] == kind) return i;
  }
  return 0;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void appendBlameJson(std::string& out, const analysis::BlameTable& t) {
  appendf(out, "{\"percentile\":%.1f,\"threshold_s\":%.6f,", t.tail_percentile,
          t.threshold);
  appendf(out, "\"total_accesses\":%u,\"tail_count\":%u,", t.total_accesses,
          t.tail_count);
  out += "\"fraction\":{";
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    appendf(out, "%s\"%s\":%.4f", s ? "," : "",
            trace::stageName(static_cast<trace::Stage>(s)), t.fraction[s]);
  }
  out += "},\"causes\":{";
  appendf(out, "\"reissues\":%u,\"block_loss\":%u,\"faults\":%u,",
          t.with_reissues, t.with_block_loss, t.with_faults);
  appendf(out, "\"incomplete\":%u}}", t.incomplete);
}

void printBlame(const char* scheme, const analysis::BlameTable& t) {
  std::printf("  %-10s p%-4.1f cut %.4fs  tail %u/%u", scheme,
              t.tail_percentile, t.threshold, t.tail_count, t.total_accesses);
  if (t.tail_count == 0) {
    std::printf("  (no tail)\n");
    return;
  }
  std::printf("  causes: reissue %u, loss %u, fault %u, incomplete %u\n",
              t.with_reissues, t.with_block_loss, t.with_faults, t.incomplete);
  std::printf("  %-10s", "");
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    if (t.fraction[s] <= 0.0) continue;
    std::printf(" %s %.0f%%", trace::stageName(static_cast<trace::Stage>(s)),
                t.fraction[s] * 100.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace robustore;
  using bench::SweepPoint;

  core::ExperimentConfig base = bench::failureSweepConfig();
  // Always-on recorder: one access per trial, so keep_slowest = 1 retains
  // every access and the pool over all trials is the full population —
  // the p99 cut is over real latencies, not a pre-filtered sample.
  base.flight = true;
  base.flight_config.keep_slowest = 1;
  base.flight_config.ring_events = 128;
  const std::vector<SweepPoint> points = bench::failureScenarios(base);

  bench::banner("tail_attribution",
                "tail blame under mid-access faults: 128 MB, 16 disks, 3x");

  analysis::TailAttribution attribution[kNumSchemes];
  std::uint64_t events_seen[kNumSchemes] = {};
  bench::Reporter reporter("tail_attribution_sweep", "scenario");

  const std::uint32_t trials = base.trials;
  for (std::size_t p = 0; p < points.size(); ++p) {
    core::ExperimentRunner runner(points[p].config);
    core::RunOptions options;
    // Ordered reduction: trial indices arrive strictly increasing per
    // scheme, so the pooled access order (and thus every tie-break) is
    // identical at any thread count.
    options.on_flight = [&](client::SchemeKind kind, std::uint32_t trial,
                            trace::FlightRecorder& fr) {
      const std::size_t s = schemeIndex(kind);
      attribution[s].addTrial(
          static_cast<std::uint32_t>(p) * trials + trial, fr);
      events_seen[s] += fr.eventsSeen();
    };
    for (auto& result : runner.runAll(options)) {
      reporter.add(points[p].label, client::schemeName(result.kind),
                   result.aggregate);
    }
    std::fflush(stdout);
  }
  reporter.emit();

  std::printf("\nBlame tables (dominant stage over pool median, tail = "
              "strictly above the latency cut)\n");
  std::string json = "{\"bench\":\"tail_attribution\",";
  appendf(json, "\"trials_per_point\":%u,\"points\":%zu,\"schemes\":[",
          trials, points.size());
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    const char* name = client::schemeName(bench::kAllSchemes[s]);
    const analysis::BlameTable b90 = attribution[s].blame(90.0);
    const analysis::BlameTable b99 = attribution[s].blame(99.0);
    std::printf("\n%s  (%zu accesses, %llu recorder events)\n", name,
                attribution[s].accesses().size(),
                static_cast<unsigned long long>(events_seen[s]));
    printBlame(name, b90);
    printBlame(name, b99);

    if (s) json += ",";
    appendf(json, "\n{\"scheme\":\"%s\",\"accesses\":%zu,", name,
            attribution[s].accesses().size());
    appendf(json, "\"recorder_events\":%llu,",
            static_cast<unsigned long long>(events_seen[s]));
    json += "\"blame_p90\":";
    appendBlameJson(json, b90);
    json += ",\"blame_p99\":";
    appendBlameJson(json, b99);
    json += ",\"outliers\":[";
    const auto top = attribution[s].outliers(5);
    for (std::size_t i = 0; i < top.size(); ++i) {
      const analysis::TailAccess& a = *top[i];
      const std::uint8_t dom =
          analysis::TailAttribution::dominantStage(a.stages,
                                                   b99.median_stage_s);
      if (i) json += ",";
      appendf(json, "\n{\"trial\":%u,\"latency_s\":%.6f,\"complete\":%s,",
              a.trial, a.latency, a.complete ? "true" : "false");
      appendf(json, "\"dominant_stage\":\"%s\",",
              dom == trace::kNoStage
                  ? "none"
                  : trace::stageName(static_cast<trace::Stage>(dom)));
      appendf(json, "\"reissues\":%u,\"blocks_lost\":%u,", a.reissues,
              a.blocks_lost);
      if (a.straggler_disk != trace::kNoDisk) {
        appendf(json, "\"straggler_disk\":%u,\"straggler_busy_s\":%.6f,",
                a.straggler_disk, a.straggler_seconds);
      }
      appendf(json, "\"faults_in_window\":%u}", a.faults_in_window);
    }
    json += "]}";
  }
  json += "]}\n";

  if (const auto dir = core::RunEnv::jsonDir()) {
    bench::writeArtifact(*dir, "tail_attribution", json, "tail_attribution",
                         "\n[json] wrote ");
  }
  return 0;
}
