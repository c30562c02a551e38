// Engine scale-out sweep: drives core::MultiClientExperiment campaigns
// up a ladder of system sizes (16 disks / 10² clients up to 10³ disks /
// 10⁴ clients, ≥10⁶ accesses at the top rung) for all four schemes and
// reports deterministic event-volume counters (events scheduled/fired,
// peak live events) plus host-side dispatch rates. A synthetic
// calendar-vs-binary-heap microbenchmark (sim::ReferenceEngine is the
// pre-calendar engine, kept verbatim) quantifies the scheduler speedup
// at campaign-scale live-event populations.
//
//   bench_scale_sweep [--tier smoke|mid|full] [--seed N]
//                     [--no-host-metrics] [--help]
//
// --no-host-metrics drops every wall-clock-derived field from stdout and
// from BENCH_scale_sweep.json, leaving only simulation-deterministic
// values — the CI determinism guard diffs that JSON across thread
// counts. ROBUSTORE_JSON / ROBUSTORE_SEED behave as everywhere else
// (see core/run_env.hpp); --seed overrides the env knob.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/multi_client.hpp"
#include "core/run_env.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"

namespace {

using namespace robustore;
using bench::appendCount;
using bench::appendNum;

double wallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One rung of the ladder: cluster size and campaign volume.
struct Rung {
  const char* label;
  std::uint32_t num_servers;
  std::uint32_t disks_per_server;
  std::uint32_t clients;
  std::uint32_t accesses_per_client;
};

struct RowOut {
  std::string label;
  std::string scheme;
  std::uint32_t disks = 0;
  std::uint32_t clients = 0;
  std::uint64_t accesses_target = 0;
  core::MultiClientResult result;
  double wall_s = 0.0;
};

/// Campaign-shaped event storm. A campaign's live-event population has
/// two parts: a hot set of in-flight transfer completions at ms spacing,
/// and a much larger parked set of timeout watchdogs scheduled far in
/// the future (and usually cancelled before firing). The storm
/// reproduces that mix — `hot` self-rescheduling ms-scale timers firing
/// `total` times over `parked` hour-scale watchdogs that never fire
/// inside the run. The heap pays O(log(parked)) per hot dispatch; the
/// calendar files the parked set once and pays O(1). The callback is a
/// pointer-sized functor so the scheduler, not callback plumbing,
/// dominates per-event cost. Identical draw sequence for both engines.
template <typename EngineT>
struct EventStorm {
  EngineT engine;
  Rng rng{0x5ca1eULL};
  std::uint64_t total = 0;
  std::uint64_t fired = 0;
  std::uint64_t armed = 0;

  struct Fire {
    EventStorm* s;
    void operator()() const {
      ++s->fired;
      if (s->armed < s->total) {
        ++s->armed;
        s->engine.schedule(s->rng.uniform(0.0, 4e-3), Fire{s});
      }
    }
  };

  std::uint64_t run(std::uint64_t n, std::uint32_t parked,
                    std::uint32_t hot, double& wall_s) {
    total = n;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < parked; ++i) {
      engine.schedule(rng.uniform(3600.0, 7200.0), [] {});
    }
    for (std::uint32_t i = 0; i < hot && armed < total; ++i) {
      ++armed;
      engine.schedule(rng.uniform(0.0, 4e-3), Fire{this});
    }
    // The hot chains drain within simulated minutes; stopping short of
    // the parked tail keeps the watchdogs pending for the whole run,
    // exactly as campaign timeouts stay pending until cancelled.
    engine.runUntil(3000.0);
    wall_s = wallSince(t0);
    return fired;
  }
};

int usage(std::FILE* to, int code) {
  std::fprintf(to,
               "usage: bench_scale_sweep [--tier smoke|mid|full] [--seed N]"
               " [--no-host-metrics]\n"
               "  --tier             ladder height: smoke = 16 disks/32"
               " clients (CI), mid = up to\n"
               "                     128 disks/10^3 clients, full = up to"
               " 10^3 disks/10^4 clients\n"
               "                     with 10^6 accesses per campaign"
               " (default: mid)\n"
               "  --seed N           base RNG seed (overrides"
               " ROBUSTORE_SEED; default 42)\n"
               "  --no-host-metrics  emit only simulation-deterministic"
               " fields (CI diff mode)\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tier = "mid";
  std::uint64_t seed = core::RunEnv::seed(42);
  bool no_host_metrics = false;
  if (const auto code = bench::parseTierArgs(
          argc, argv, "bench_scale_sweep", usage, tier, seed,
          "--no-host-metrics", &no_host_metrics)) {
    return *code;
  }
  const bool host_metrics = !no_host_metrics;

  // The ladder. Accesses are deliberately small (4 x 64 KiB blocks, 2x
  // redundancy) so event volume — not media transfer time — dominates:
  // this is an engine bench, the paper benches measure realistic I/O.
  std::vector<Rung> rungs;
  rungs.push_back({"16d/32c", 4, 4, 32, 4});
  if (tier != "smoke") {
    rungs.push_back({"128d/1000c", 16, 8, 1000, 10});
  }
  if (tier == "full") {
    rungs.push_back({"1000d/10000c", 125, 8, 10000, 100});
  }

  std::printf("Engine scale sweep (%s tier): campaigns of small accesses,"
              " all four schemes\n\n", tier.c_str());
  std::printf("%-14s %-10s %10s %10s %12s %12s %9s", "size", "scheme",
              "accesses", "completed", "events", "peak live", "sys MBps");
  if (host_metrics) std::printf(" %9s %11s", "wall s", "events/s");
  std::printf("\n");

  std::vector<RowOut> rows;
  std::size_t largest_peak_live = 0;
  for (const Rung& rung : rungs) {
    for (const auto kind : client::kAllSchemes) {
      core::MultiClientConfig cfg;
      cfg.num_servers = rung.num_servers;
      cfg.disks_per_server = rung.disks_per_server;
      cfg.num_clients = rung.clients;
      cfg.disks_per_access = 8;
      cfg.access.k = 4;
      cfg.access.block_bytes = 64 * kKiB;
      cfg.access.redundancy = 2.0;
      cfg.layout.heterogeneous = false;
      cfg.scheme = kind;
      cfg.accesses_per_client = rung.accesses_per_client;
      cfg.stagger = 1 * kMilliseconds;
      cfg.fast_selection = true;  // O(candidates) selection at 10^3 disks
      cfg.seed = seed;
      // ROBUSTORE_FLIGHT=1 attaches the always-on flight recorder to the
      // campaign. Recorder stats go to stderr only — every simulated
      // column stays identical with it on or off (only the host-timed
      // wall/events-per-sec fields move), which is how the overhead
      // check can diff the deterministic fields while timing the
      // recorder's wall-clock cost.
      cfg.flight = core::RunEnv::flight();

      RowOut row;
      row.label = rung.label;
      row.scheme = client::schemeName(kind);
      row.disks = rung.num_servers * rung.disks_per_server;
      row.clients = rung.clients;
      row.accesses_target =
          static_cast<std::uint64_t>(rung.clients) * rung.accesses_per_client;

      core::MultiClientExperiment experiment(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      row.result = experiment.run();
      row.wall_s = wallSince(t0);
      if (row.result.flight != nullptr) {
        std::fprintf(stderr,
                     "[flight] %s %s: %llu accesses, %llu events, "
                     "%zu retained\n",
                     row.label.c_str(), row.scheme.c_str(),
                     static_cast<unsigned long long>(
                         row.result.flight->accessesClosed()),
                     static_cast<unsigned long long>(
                         row.result.flight->eventsSeen()),
                     row.result.flight->retained().size());
      }
      largest_peak_live =
          std::max(largest_peak_live, row.result.peak_live_events);

      std::printf("%-14s %-10s %10llu %10llu %12llu %12zu %9.1f",
                  row.label.c_str(), row.scheme.c_str(),
                  static_cast<unsigned long long>(row.accesses_target),
                  static_cast<unsigned long long>(
                      row.result.accesses_completed),
                  static_cast<unsigned long long>(row.result.events_fired),
                  row.result.peak_live_events,
                  row.result.system_throughput_mbps);
      if (host_metrics) {
        std::printf(" %9.2f %11.0f", row.wall_s,
                    row.wall_s > 0
                        ? static_cast<double>(row.result.events_fired) /
                              row.wall_s
                        : 0.0);
      }
      std::printf("\n");
      rows.push_back(std::move(row));
    }
  }

  // Calendar-queue vs binary-heap dispatch at a live-event population
  // matching the largest campaign just run (floor of 4096 so the smoke
  // tier still exercises a meaningful heap depth).
  const std::uint32_t micro_parked = static_cast<std::uint32_t>(
      std::max<std::size_t>(largest_peak_live, 4096));
  const std::uint32_t micro_hot = 1024;
  // Enough dispatches that the adaptive-geometry warmup (the first
  // ~64Ki events run at the initial coarse bucket width) is noise.
  const std::uint64_t micro_total =
      tier == "smoke" ? 1'000'000ULL : 2'000'000ULL;
  // Best-of-3 wall clock per engine: the storm is deterministic, so the
  // fastest trial is the one least perturbed by host scheduling noise.
  constexpr int kMicroTrials = 3;
  double calendar_wall = 0.0;
  double heap_wall = 0.0;
  std::uint64_t calendar_fired = 0;
  std::uint64_t heap_fired = 0;
  for (int t = 0; t < kMicroTrials; ++t) {
    double w = 0.0;
    auto storm = std::make_unique<EventStorm<sim::Engine>>();
    calendar_fired = storm->run(micro_total, micro_parked, micro_hot, w);
    if (t == 0 || w < calendar_wall) calendar_wall = w;
  }
  for (int t = 0; t < kMicroTrials; ++t) {
    double w = 0.0;
    auto storm = std::make_unique<EventStorm<sim::ReferenceEngine>>();
    heap_fired = storm->run(micro_total, micro_parked, micro_hot, w);
    if (t == 0 || w < heap_wall) heap_wall = w;
  }
  const double speedup =
      calendar_wall > 0 ? heap_wall / calendar_wall : 0.0;
  std::printf("\nEngine micro (%u hot timers over %u parked watchdogs,"
              " %llu dispatches):\n", micro_hot, micro_parked,
              static_cast<unsigned long long>(micro_total));
  if (host_metrics) {
    std::printf("  calendar queue: %11.0f events/s\n",
                calendar_wall > 0 ? calendar_fired / calendar_wall : 0.0);
    std::printf("  binary heap:    %11.0f events/s\n",
                heap_wall > 0 ? heap_fired / heap_wall : 0.0);
    std::printf("  speedup:        %10.2fx\n", speedup);
  } else {
    std::printf("  (host metrics suppressed; %llu + %llu events fired)\n",
                static_cast<unsigned long long>(calendar_fired),
                static_cast<unsigned long long>(heap_fired));
  }

  if (const auto dir = core::RunEnv::jsonDir()) {
    std::string out = "{\n  \"id\": \"scale_sweep\",\n  \"tier\": \"" +
                      tier + "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RowOut& r = rows[i];
      out += "    {\"label\": \"" + r.label + "\", \"scheme\": \"" +
             r.scheme + "\"";
      appendCount(out, "disks", r.disks);
      appendCount(out, "clients", r.clients);
      appendCount(out, "accesses_target", r.accesses_target);
      appendCount(out, "accesses_completed", r.result.accesses_completed);
      appendCount(out, "clients_completed", r.result.clients_completed);
      appendCount(out, "events_scheduled", r.result.events_scheduled);
      appendCount(out, "events_fired", r.result.events_fired);
      appendCount(out, "peak_live_events", r.result.peak_live_events);
      appendNum(out, "system_throughput_mbps",
                r.result.system_throughput_mbps);
      appendNum(out, "makespan_s", r.result.makespan);
      appendNum(out, "mean_latency_s", r.result.accesses.meanLatency());
      if (host_metrics) {
        appendNum(out, "wall_s", r.wall_s);
        appendNum(out, "events_per_sec",
                  r.wall_s > 0 ? static_cast<double>(r.result.events_fired) /
                                     r.wall_s
                               : 0.0);
      }
      out += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    out += "  ],\n  \"engine_micro\": {\"parked_events\": " +
           std::to_string(micro_parked) +
           ", \"hot_timers\": " + std::to_string(micro_hot) +
           ", \"total_events\": " + std::to_string(micro_total);
    appendCount(out, "calendar_fired", calendar_fired);
    appendCount(out, "heap_fired", heap_fired);
    if (host_metrics) {
      appendNum(out, "calendar_wall_s", calendar_wall);
      appendNum(out, "calendar_events_per_sec",
                calendar_wall > 0 ? calendar_fired / calendar_wall : 0.0);
      appendNum(out, "heap_wall_s", heap_wall);
      appendNum(out, "heap_events_per_sec",
                heap_wall > 0 ? heap_fired / heap_wall : 0.0);
      appendNum(out, "speedup", speedup);
    }
    out += "}\n}\n";
    bench::writeArtifact(*dir, "scale_sweep", out, "bench_scale_sweep");
  }
  return 0;
}
