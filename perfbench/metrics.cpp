#include "metrics.hpp"

#include <algorithm>

#include "measure.hpp"

namespace perfbench {
namespace {

using robustore::client::SchemeKind;
using robustore::telemetry::HostScope;

constexpr double kMiB = 1024.0 * 1024.0;

struct SchemeLabel {
  SchemeKind kind;
  const char* label;
};
constexpr SchemeLabel kSchemeLabels[] = {
    {SchemeKind::kRaid0, "raid0"},
    {SchemeKind::kRRaidS, "rraid_s"},
    {SchemeKind::kRRaidA, "rraid_a"},
    {SchemeKind::kRobuStore, "robustore"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sum of `field` over the first `count` operations (all when 0).
template <typename F>
double sum(const std::vector<OpRecord>& ops, F field, std::size_t count = 0) {
  const std::size_t n = count == 0 ? ops.size() : std::min(count, ops.size());
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += field(ops[i]);
  return total;
}

double scopeSeconds(const OpRecord& r, HostScope s) {
  return r.profile.scopeSeconds(s);
}
double scopeCalls(const OpRecord& r, HostScope s) {
  return static_cast<double>(r.profile.calls[static_cast<std::size_t>(s)]);
}

/// Host ms per access of every operation matching `pick`.
template <typename P>
std::vector<double> accessMs(const std::vector<OpRecord>& ops, P pick) {
  std::vector<double> out;
  for (const OpRecord& r : ops) {
    if (pick(r) && r.accesses > 0) {
      out.push_back(1e3 * r.wall_s / static_cast<double>(r.accesses));
    }
  }
  return out;
}

/// Host seconds of one balanced round: the sum over cells of the cell's
/// median operation time.
double medianRoundSeconds(const std::vector<OpRecord>& ops,
                          std::uint32_t cells) {
  double total = 0.0;
  for (std::uint32_t c = 0; c < cells; ++c) {
    std::vector<double> walls;
    for (const OpRecord& r : ops) {
      if (r.cell == c) walls.push_back(r.wall_s);
    }
    total += median(std::move(walls));
  }
  return total;
}

}  // namespace

void Totals::add(const std::vector<OpRecord>& ops) {
  for (const OpRecord& r : ops) {
    attempted += r.accesses;
    failed += r.failed;
  }
}

robustore::telemetry::HostProfile profileDelta(
    const robustore::telemetry::HostProfile& after,
    const robustore::telemetry::HostProfile& before) {
  robustore::telemetry::HostProfile d;
  for (std::size_t i = 0; i < robustore::telemetry::kNumHostScopes; ++i) {
    d.seconds[i] = after.seconds[i] - before.seconds[i];
    d.calls[i] = after.calls[i] - before.calls[i];
  }
  d.wall_seconds = after.wall_seconds - before.wall_seconds;
  d.trials = after.trials - before.trials;
  return d;
}

MetricList endToEndMetrics(const std::vector<OpRecord>& ops,
                           const Workload& workload, double setup_s,
                           double peak_rss_mb, const Totals& totals,
                           double to_reference) {
  const std::uint32_t cells = workload.cells();
  // One balanced round: each cell's accesses and verified bytes per
  // operation (means — they are simulated, not timed), over the sum of the
  // cells' median operation times.
  double round_accesses = 0.0;
  double round_bytes = 0.0;
  for (std::uint32_t c = 0; c < cells; ++c) {
    double n = 0.0;
    double accesses = 0.0;
    double bytes = 0.0;
    for (const OpRecord& r : ops) {
      if (r.cell != c) continue;
      n += 1.0;
      accesses += static_cast<double>(r.accesses);
      bytes += r.verified_bytes;
    }
    round_accesses += ratio(accesses, n);
    round_bytes += ratio(bytes, n);
  }
  const double round_s = medianRoundSeconds(ops, cells) * to_reference;
  return {
      {"setup_s", "s", setup_s},
      {"accesses_per_s", "1/s", ratio(round_accesses, round_s)},
      {"verified_mb_per_s", "MB/s", ratio(round_bytes / kMiB, round_s)},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"ops_ok_frac", "frac",
       1.0 - ratio(static_cast<double>(totals.failed),
                   static_cast<double>(totals.attempted))},
  };
}

MetricList perLayerMetrics(const std::vector<OpRecord>& untraced,
                           const std::vector<OpRecord>& traced,
                           std::uint32_t check_ops, const SpanRecorder& spans,
                           const std::optional<CodecRates>& codec,
                           double seconds_per_fault) {
  const auto& u = untraced;
  const auto& t = traced;
  const std::size_t p = check_ops;  // the checked prefix
  const auto accesses = [](const OpRecord& r) {
    return static_cast<double>(r.accesses);
  };
  const double u_acc = sum(u, accesses, p);
  const double t_acc = sum(t, accesses);
  const double t_wall = sum(t, [](const OpRecord& r) { return r.wall_s; });
  const double u_wall = sum(u, [](const OpRecord& r) { return r.wall_s; });

  // Engine counters: reported by the entry point where it can (campaign,
  // data plane); runTrial keeps its engine private, so paper_mix counts
  // fired events as HostProfiler engine.dispatch entries instead.
  const bool engine_stats = !u.empty() && u.front().has_engine_stats;
  const auto events = [&](const OpRecord& r) {
    return engine_stats ? static_cast<double>(r.events_fired)
                        : scopeCalls(r, HostScope::kEngineDispatch);
  };
  const double p_events = sum(engine_stats ? u : t, events, p);
  const double p_scheduled = sum(
      u, [](const OpRecord& r) { return double(r.events_scheduled); }, p);
  double peak_live = 0.0;
  for (std::size_t i = 0; i < p && i < u.size(); ++i) {
    peak_live = std::max(peak_live, double(u[i].peak_live_events));
  }
  const auto scope = [&](HostScope s) {
    return sum(t, [s](const OpRecord& r) { return scopeSeconds(r, s); });
  };
  const double dispatch_s = scope(HostScope::kEngineDispatch);
  const double disk_s = scope(HostScope::kDiskService);
  const double decode_s = scope(HostScope::kDecode);
  const double xor_s = scope(HostScope::kXorKernel);

  MetricList m;
  const auto add = [&m](std::string name, std::string unit, double value) {
    m.push_back({std::move(name), std::move(unit), value});
  };

  // sim
  add("sim.events_per_access", "count", ratio(p_events, u_acc));
  add("sim.events_per_s", "1/s", ratio(sum(t, events), t_wall));
  add("sim.peak_live_events", "count", peak_live);
  add("sim.unfired_frac", "frac",
      engine_stats ? ratio(p_scheduled - p_events, p_scheduled) : 0.0);
  add("sim.dispatch_s_per_access", "s", ratio(dispatch_s, t_acc));
  add("sim.dispatch_wall_share", "frac", ratio(dispatch_s, t_wall));

  // disk
  add("disk.service_s_per_access", "s", ratio(disk_s, t_acc));
  add("disk.service_calls_per_access", "count",
      ratio(sum(t,
                [](const OpRecord& r) {
                  return scopeCalls(r, HostScope::kDiskService);
                },
                p),
            u_acc));
  add("disk.wall_share", "frac", ratio(disk_s, t_wall));

  // client: per scheme, then per op kind, then per access, then per call
  for (const auto& [kind, label] : kSchemeLabels) {
    const std::string prefix = std::string("client.") + label;
    double acc = 0.0;
    double wall = 0.0;
    for (const OpRecord& r : u) {
      if (r.scheme != kind) continue;
      acc += static_cast<double>(r.accesses);
      wall += r.wall_s;
    }
    const auto of = [kind](bool write) {
      return [kind, write](const OpRecord& r) {
        return r.scheme == kind && r.write == write;
      };
    };
    add(prefix + ".accesses_per_s", "1/s", ratio(acc, wall));
    add(prefix + ".read_ms_p50", "ms", median(accessMs(u, of(false))));
    add(prefix + ".write_ms_p50", "ms", median(accessMs(u, of(true))));
  }
  for (const bool write : {false, true}) {
    const auto samples =
        accessMs(u, [write](const OpRecord& r) { return r.write == write; });
    const std::string kind = write ? "client.write_ms_" : "client.read_ms_";
    add(kind + "p50", "ms", median(samples));
    add(kind + "p90", "ms", tailPercentile(samples, 0.9).value_or(0.0));
  }
  const double p_blocks = sum(u, [](const OpRecord& r) {
    return r.blocks_received;
  }, p);
  const double p_originals = sum(u, [](const OpRecord& r) {
    return r.blocks_original;
  }, p);
  const double p_network = sum(u, [](const OpRecord& r) {
    return r.network_bytes;
  }, p);
  const double p_data = sum(u, [](const OpRecord& r) { return r.data_bytes; },
                            p);
  add("client.blocks_per_access", "count", ratio(p_blocks, u_acc));
  add("client.reception_overhead", "frac",
      p_originals > 0.0 ? p_blocks / p_originals - 1.0 : 0.0);
  add("client.io_overhead", "frac",
      p_data > 0.0 ? p_network / p_data - 1.0 : 0.0);
  add("client.reissues_per_access", "count",
      ratio(sum(u, [](const OpRecord& r) { return r.reissues; }, p), u_acc));
  const auto callMs = [&spans](const char* name) {
    return 1e3 * median(spans.durations(name));
  };
  add("client.cluster_build_ms", "ms", callMs("client.Cluster"));
  add("client.select_disks_ms", "ms", callMs("client.selectDisks"));
  add("client.plan_file_ms", "ms", callMs("client.planFile"));
  add("client.read_call_ms", "ms", callMs("client.read"));

  // coding
  const double t_xor_bytes = sum(t, [](const OpRecord& r) {
    return static_cast<double>(r.xor_ops) * static_cast<double>(r.block_bytes);
  });
  add("coding.decode_s_per_access", "s", ratio(decode_s, t_acc));
  add("coding.xor_s_per_access", "s", ratio(xor_s, t_acc));
  add("coding.xor_ops_per_access", "count",
      ratio(sum(u, [](const OpRecord& r) { return double(r.xor_ops); }, p),
            u_acc));
  add("coding.symbols_fed_per_access", "count",
      ratio(sum(u, [](const OpRecord& r) { return double(r.symbols_fed); }, p),
            u_acc));
  add("coding.xor_gb_per_s", "GB/s", ratio(t_xor_bytes / 1e9, xor_s));
  add("coding.encode_mb_per_s", "MB/s",
      codec.has_value() ? codec->encode_mb_per_s : 0.0);
  add("coding.decode_mb_per_s", "MB/s",
      codec.has_value() ? codec->decode_mb_per_s : 0.0);
  add("coding.wall_share", "frac", ratio(decode_s + xor_s, t_wall));

  // process
  add("process.allocs_per_access", "count",
      ratio(sum(u, [](const OpRecord& r) { return double(r.allocs); }, p),
            u_acc));
  add("process.alloc_mb_per_access", "MB",
      ratio(sum(u, [](const OpRecord& r) { return double(r.alloc_bytes); }, p) /
                kMiB,
            u_acc));
  add("process.minor_faults_per_access", "count",
      ratio(sum(u, [](const OpRecord& r) { return double(r.minor_faults); }, p),
            u_acc));
  // Host time the process layer costs, as two estimates: sampled time
  // inside operator new / delete, and (computed) the traced pass's minor
  // faults times the calibrated cost of one fault.
  const double alloc_s = sum(t, [](const OpRecord& r) { return r.alloc_s; });
  const double fault_s =
      seconds_per_fault *
      sum(t, [](const OpRecord& r) { return double(r.minor_faults); });
  add("process.alloc_s_per_access", "s", ratio(alloc_s, t_acc));
  add("process.fault_s_per_access", "s", ratio(fault_s, t_acc));
  add("process.wall_share", "frac", ratio(alloc_s + fault_s, t_wall));

  // telemetry
  add("telemetry.trace_overhead_frac", "frac",
      u_wall > 0.0 ? t_wall / u_wall - 1.0 : 0.0);
  return m;
}

}  // namespace perfbench
