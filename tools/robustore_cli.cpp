// robustore_cli — run arbitrary RobuSTore simulation experiments from the
// command line, without writing a bench binary.
//
//   robustore_cli --scheme all --op read --data-mb 1024 --disks 64
//                 --redundancy 3 --trials 20
//
// Prints the three paper metrics (bandwidth, latency std-dev, I/O
// overhead) per scheme; --csv switches to machine-readable output.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/tail_attribution.hpp"
#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "core/experiment.hpp"
#include "core/run_env.hpp"
#include "core/trial_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_trace.hpp"

namespace {

using namespace robustore;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme {raid0|rraid-s|rraid-a|robustore|all}   (default all)\n"
      "  --op {read|write|raw}                            (default read)\n"
      "  --data-mb N          original data size          (default 1024)\n"
      "  --block-kb N         coding block size           (default 1024)\n"
      "  --redundancy D       degree of redundancy        (default 3)\n"
      "  --disks N            disks per access            (default 64)\n"
      "  --servers N          filers in the cluster       (default 16)\n"
      "  --disks-per-server N                             (default 8)\n"
      "  --rtt-ms X           network round trip          (default 1)\n"
      "  --layout {het|homo}  in-disk layout policy       (default het)\n"
      "  --bf N --pseq P      homogeneous layout knobs    (1024 / 1.0)\n"
      "  --background {none|homo|het|het-static}          (default none)\n"
      "  --bg-interval-ms X   homogeneous bg interval     (default 6)\n"
      "  --cache              enable the 2 GB filer caches\n"
      "  --reuse-file         reread one file across trials\n"
      "  --metadata-selection use the Sec 5.3.1 disk selector\n"
      "  --client-bw-mbps X   shared client downlink cap (default: none)\n"
      "  --codec {lt|raptor}  RobuSTore rateless codec    (default lt)\n"
      "  --trials N           accesses per scheme         (default 20)\n"
      "  --threads N          trial fan-out workers       (default:\n"
      "                       ROBUSTORE_THREADS, else all cores; results\n"
      "                       are identical for every value)\n"
      "  --seed S             master RNG seed             (default:\n"
      "                       ROBUSTORE_SEED, else 42)\n"
      "  --csv                machine-readable output\n"
      "\n"
      "subcommand: %s trace [options] [--trial N] [--dt-ms X] [--out PATH]\n"
      "  Runs ONE trial with structured tracing and writes the trace in\n"
      "  Chrome trace_event JSON (load in Perfetto / chrome://tracing).\n"
      "  Takes the options above except --trials/--threads/--csv and the\n"
      "  trial-coupling flags; --scheme all defaults to robustore. The\n"
      "  per-stage breakdown summary goes to stderr; the JSON goes to\n"
      "  --out PATH, or stdout when --out is omitted. Telemetry counter\n"
      "  tracks (queue depths, decoder progress, ...) ride along on the\n"
      "  --dt-ms grid (default 10 ms).\n"
      "\n"
      "subcommand: %s timeline [options] [--trial N] [--dt-ms X]\n"
      "                        [--format csv|json] [--out PATH]\n"
      "                        [--prom PATH]\n"
      "  Runs ONE trial with periodic telemetry sampling and dumps the\n"
      "  time series (per-disk queue depth and utilization, link bytes in\n"
      "  flight, decoder progress, fault state, ...) as CSV (default) or\n"
      "  JSON to --out PATH / stdout. --dt-ms sets the sampling grid\n"
      "  (default 10 ms). --prom PATH\n"
      "  additionally writes the final metric snapshot in Prometheus text\n"
      "  format. Sampling reads state only: the simulated results are\n"
      "  bitwise identical with it on or off.\n"
      "\n"
      "subcommand: %s tail [options] [--trial N] [--slowest K] [--out DIR]\n"
      "  Runs the trials with the always-on flight recorder and prints\n"
      "  tail-latency forensics: a per-stage blame table over the access\n"
      "  pool plus structured attribution (dominant stage, straggler disk,\n"
      "  reissues, concurrent faults) for the slowest accesses. --out DIR\n"
      "  expands the slowest K accesses into full Chrome traces.\n"
      "  See `%s tail --help`.\n"
      "\n"
      "subcommand: %s chaos [--seeds A..B] [--shrink] [--replay FILE]\n"
      "  Runs seeded randomized fault campaigns (all four schemes, repair\n"
      "  service and data plane active) with end-to-end invariant checks;\n"
      "  failing schedules can be minimized and replayed bit-identically.\n"
      "  See `%s chaos --help`.\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

/// Focused help for `robustore_cli trace --help`.
void traceUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s trace [options] [--trial N] [--dt-ms X] [--out PATH]\n"
      "  Runs ONE trial with structured tracing and writes the trace in\n"
      "  Chrome trace_event JSON (load in Perfetto / chrome://tracing).\n"
      "  --trial N   which trial to trace                (default 0)\n"
      "  --dt-ms X   telemetry counter-track grid, > 0   (default 10)\n"
      "  --out PATH  trace destination                   (default stdout)\n"
      "  Takes the shared experiment options (see `%s --help`) except\n"
      "  --threads/--csv and the trial-coupling flags; --trials bounds\n"
      "  --trial; --seed overrides ROBUSTORE_SEED; --scheme all defaults\n"
      "  to robustore.\n",
      argv0, argv0);
}

/// Focused help for `robustore_cli timeline --help`.
void timelineUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s timeline [options] [--trial N] [--dt-ms X]\n"
      "                   [--format csv|json] [--out PATH] [--prom PATH]\n"
      "  Runs ONE trial with periodic telemetry sampling and dumps the\n"
      "  time series (queue depths, link bytes in flight, decoder\n"
      "  progress, ...).\n"
      "  --trial N       which trial to sample           (default 0)\n"
      "  --dt-ms X       sampling grid in ms, > 0        (default 10)\n"
      "  --format F      csv or json                     (default csv)\n"
      "  --out PATH      series destination              (default stdout)\n"
      "  --prom PATH     also write a Prometheus-text final snapshot\n"
      "  Takes the shared experiment options (see `%s --help`) except\n"
      "  --threads/--csv and the trial-coupling flags; --trials bounds\n"
      "  --trial; --seed overrides ROBUSTORE_SEED.\n",
      argv0, argv0);
}

/// Numeric flag values parse strictly (core::parseUnsigned / parseReal,
/// the parsers behind the ROBUSTORE_* knobs): the whole argument must be
/// the number and lie in range, else the caller prints usage and exits 2.
std::optional<std::uint64_t> countFlag(
    const char* value, std::uint64_t lo,
    std::uint64_t hi = std::numeric_limits<std::uint32_t>::max()) {
  if (value == nullptr) return std::nullopt;
  const auto n = core::parseUnsigned(value);
  if (!n || *n < lo || *n > hi) return std::nullopt;
  return n;
}

std::optional<double> realFlag(const char* value, double lo) {
  if (value == nullptr) return std::nullopt;
  const auto d = core::parseReal(value);
  if (!d || *d < lo) return std::nullopt;
  return d;
}

/// `--dt-ms` of `trace` and `timeline`: a positive sampling grid in
/// milliseconds, returned in simulated seconds.
std::optional<SimTime> dtFlag(const char* value) {
  const auto ms = realFlag(value, 0.0);
  if (!ms || *ms <= 0.0) return std::nullopt;
  return *ms * kMilliseconds;
}

struct Options {
  core::ExperimentConfig config;
  core::RunOptions run;
  std::optional<client::SchemeKind> scheme;  // nullopt = all
  bool csv = false;
};

std::optional<Options> parse(int argc, char** argv, bool& help) {
  Options opt;
  // Env knobs seed the defaults; the flags below override them, so the
  // precedence is flag > ROBUSTORE_* > built-in, uniformly across the
  // bare experiment runner and every subcommand. (--threads keeps its
  // 0 = auto default: RunOptions resolves ROBUSTORE_THREADS itself.)
  opt.config.seed = core::RunEnv::seed(opt.config.seed);
  Bytes data_mb = 1024;
  const auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto count = [&](std::uint64_t lo) { return countFlag(next(i), lo); };
    const auto real = [&](double lo) { return realFlag(next(i), lo); };
    if (arg == "--scheme") {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s == "raid0") opt.scheme = client::SchemeKind::kRaid0;
      else if (s == "rraid-s") opt.scheme = client::SchemeKind::kRRaidS;
      else if (s == "rraid-a") opt.scheme = client::SchemeKind::kRRaidA;
      else if (s == "robustore") opt.scheme = client::SchemeKind::kRobuStore;
      else if (s == "all") opt.scheme = std::nullopt;
      else return std::nullopt;
    } else if (arg == "--op") {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s == "read") opt.config.op = core::ExperimentConfig::Op::kRead;
      else if (s == "write") opt.config.op = core::ExperimentConfig::Op::kWrite;
      else if (s == "raw")
        opt.config.op = core::ExperimentConfig::Op::kReadAfterWrite;
      else return std::nullopt;
    } else if (arg == "--data-mb") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      data_mb = *v;
    } else if (arg == "--block-kb") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.access.block_bytes = *v * kKiB;
    } else if (arg == "--redundancy") {
      const auto v = real(0);
      if (!v) return std::nullopt;
      opt.config.access.redundancy = *v;
    } else if (arg == "--disks") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.disks_per_access = static_cast<std::uint32_t>(*v);
    } else if (arg == "--servers") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.num_servers = static_cast<std::uint32_t>(*v);
    } else if (arg == "--disks-per-server") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.disks_per_server = static_cast<std::uint32_t>(*v);
    } else if (arg == "--rtt-ms") {
      const auto v = real(0);
      if (!v) return std::nullopt;
      opt.config.round_trip = *v * kMilliseconds;
    } else if (arg == "--layout") {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s == "het") opt.config.layout.heterogeneous = true;
      else if (s == "homo") opt.config.layout.heterogeneous = false;
      else return std::nullopt;
    } else if (arg == "--bf") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.layout.homogeneous.blocking_factor =
          static_cast<std::uint32_t>(*v);
    } else if (arg == "--pseq") {
      const auto v = real(0);
      if (!v || *v > 1.0) return std::nullopt;
      opt.config.layout.homogeneous.p_seq = *v;
    } else if (arg == "--background") {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      using Background = core::ExperimentConfig::Background;
      if (s == "none") opt.config.background = Background::kNone;
      else if (s == "homo") opt.config.background = Background::kHomogeneous;
      else if (s == "het") opt.config.background = Background::kHeterogeneous;
      else if (s == "het-static")
        opt.config.background = Background::kHeterogeneousStatic;
      else return std::nullopt;
    } else if (arg == "--bg-interval-ms") {
      const auto v = real(0.001);
      if (!v) return std::nullopt;
      opt.config.bg_interval = *v * kMilliseconds;
    } else if (arg == "--cache") {
      opt.config.cache.enabled = true;
    } else if (arg == "--reuse-file") {
      opt.config.reuse_file = true;
    } else if (arg == "--metadata-selection") {
      opt.config.metadata_disk_selection = true;
    } else if (arg == "--client-bw-mbps") {
      const auto v = real(0.001);
      if (!v) return std::nullopt;
      opt.config.client_bandwidth = mbps(*v);
    } else if (arg == "--codec") {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s == "lt") opt.config.codec = client::CodecKind::kLt;
      else if (s == "raptor") opt.config.codec = client::CodecKind::kRaptor;
      else return std::nullopt;
    } else if (arg == "--trials") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.config.trials = static_cast<std::uint32_t>(*v);
    } else if (arg == "--threads") {
      const auto v = count(1);
      if (!v) return std::nullopt;
      opt.run.threads = static_cast<unsigned>(*v);
    } else if (arg == "--seed") {
      const auto v =
          countFlag(next(i), 0, std::numeric_limits<std::uint64_t>::max());
      if (!v) return std::nullopt;
      opt.config.seed = *v;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      help = true;
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  const Bytes data = data_mb * kMiB;
  if (opt.config.access.block_bytes == 0 ||
      data < opt.config.access.block_bytes) {
    return std::nullopt;
  }
  opt.config.access.k =
      static_cast<std::uint32_t>(data / opt.config.access.block_bytes);
  return opt;
}

/// `robustore_cli trace`: one traced trial, exported as Chrome
/// trace_event JSON. Returns the process exit code.
int traceMain(int argc, char** argv) {
  std::uint32_t trial = 0;
  telemetry::TrialTelemetry telemetry;
  std::string out_path;
  // Extract the subcommand-only flags, hand the rest to parse().
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trial" && i + 1 < argc) {
      const auto v = countFlag(argv[++i], 0);
      if (!v) {
        traceUsage(stderr, argv[0]);
        return 2;
      }
      trial = static_cast<std::uint32_t>(*v);
    } else if (arg == "--dt-ms" && i + 1 < argc) {
      const auto dt = dtFlag(argv[++i]);
      if (!dt) {
        traceUsage(stderr, argv[0]);
        return 2;
      }
      telemetry.sample_dt = *dt;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  bool help = false;
  const auto options = parse(static_cast<int>(rest.size()), rest.data(), help);
  if (help) {
    traceUsage(stdout, argv[0]);
    return 0;
  }
  if (!options) {
    traceUsage(stderr, argv[0]);
    return 2;
  }
  if (core::ExperimentRunner::trialsAreCoupled(options->config)) {
    std::fprintf(stderr,
                 "trace: --reuse-file / --metadata-selection couple trials "
                 "and cannot be traced one trial at a time\n");
    return 2;
  }
  // A single trial of a single scheme: the paper's workhorse is the
  // natural default when none was picked.
  const client::SchemeKind kind =
      options->scheme.value_or(client::SchemeKind::kRobuStore);
  if (trial >= options->config.trials) {
    std::fprintf(stderr, "trace: --trial %u out of range (trials=%u)\n",
                 trial, options->config.trials);
    return 2;
  }

  // Counter tracks ride along with the spans: sampling on the --dt-ms
  // grid lets Perfetto show the curves next to the events.
  trace::Tracer tracer;
  const metrics::AccessMetrics m = core::ExperimentRunner::runTrial(
      options->config, kind, trial, &tracer, &telemetry);

  const std::string json = trace::toChromeTraceJson(tracer);
  if (!trace::validJson(json)) {
    std::fprintf(stderr, "trace: exporter produced invalid JSON\n");
    return 1;
  }
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else if (!trace::writeChromeTraceJson(tracer, out_path)) {
    std::fprintf(stderr, "trace: cannot write %s\n", out_path.c_str());
    return 1;
  } else {
    std::fprintf(stderr, "trace written to %s (%zu records)\n",
                 out_path.c_str(), tracer.records().size());
  }

  std::fprintf(stderr,
               "\n%s trial %u: %s, latency %.3fs, %u blocks received\n",
               client::schemeName(kind), trial,
               m.complete ? "complete" : "INCOMPLETE", m.latency,
               m.blocks_received);
  std::fprintf(stderr, "per-stage breakdown (seconds of span time):\n");
  const trace::StageBreakdown all = tracer.breakdown(0);
  for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
    const auto stage = static_cast<trace::Stage>(s);
    if (all.stageSpans(stage) == 0) continue;
    std::fprintf(stderr, "  %-16s %12.4f  (%u spans)\n",
                 trace::stageName(stage), all.stageSeconds(stage),
                 all.stageSpans(stage));
  }
  return 0;
}

/// Writes `text` to `path`, or to stdout when `path` is empty.
bool writeTextOutput(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// `robustore_cli timeline`: one sampled trial, dumped as time-series
/// CSV/JSON (plus an optional Prometheus-text final snapshot). Returns
/// the process exit code.
int timelineMain(int argc, char** argv) {
  std::uint32_t trial = 0;
  telemetry::TrialTelemetry telemetry;
  std::string format = "csv";
  std::string out_path;
  std::string prom_path;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trial" && i + 1 < argc) {
      const auto v = countFlag(argv[++i], 0);
      if (!v) {
        timelineUsage(stderr, argv[0]);
        return 2;
      }
      trial = static_cast<std::uint32_t>(*v);
    } else if (arg == "--dt-ms" && i + 1 < argc) {
      const auto dt = dtFlag(argv[++i]);
      if (!dt) {
        timelineUsage(stderr, argv[0]);
        return 2;
      }
      telemetry.sample_dt = *dt;
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--prom" && i + 1 < argc) {
      prom_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (format != "csv" && format != "json") {
    std::fprintf(stderr, "timeline: --format must be csv or json\n");
    return 2;
  }
  bool help = false;
  const auto options = parse(static_cast<int>(rest.size()), rest.data(), help);
  if (help) {
    timelineUsage(stdout, argv[0]);
    return 0;
  }
  if (!options) {
    timelineUsage(stderr, argv[0]);
    return 2;
  }
  if (core::ExperimentRunner::trialsAreCoupled(options->config)) {
    std::fprintf(stderr,
                 "timeline: --reuse-file / --metadata-selection couple "
                 "trials and cannot be sampled one trial at a time\n");
    return 2;
  }
  const client::SchemeKind kind =
      options->scheme.value_or(client::SchemeKind::kRobuStore);
  if (trial >= options->config.trials) {
    std::fprintf(stderr, "timeline: --trial %u out of range (trials=%u)\n",
                 trial, options->config.trials);
    return 2;
  }

  const metrics::AccessMetrics m = core::ExperimentRunner::runTrial(
      options->config, kind, trial, /*trace_out=*/nullptr, &telemetry);

  const std::string text = format == "json"
                               ? telemetry.timeline.toJson(telemetry.sample_dt)
                               : telemetry.timeline.toCsv();
  if (!writeTextOutput(text, out_path)) {
    std::fprintf(stderr, "timeline: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!out_path.empty()) {
    std::fprintf(stderr, "timeline written to %s\n", out_path.c_str());
  }
  if (!prom_path.empty()) {
    if (!writeTextOutput(telemetry.registry.prometheusText(), prom_path)) {
      std::fprintf(stderr, "timeline: cannot write %s\n", prom_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "prometheus snapshot written to %s\n",
                 prom_path.c_str());
  }

  std::fprintf(stderr,
               "\n%s trial %u: %s, latency %.3fs, %u blocks received\n",
               client::schemeName(kind), trial,
               m.complete ? "complete" : "INCOMPLETE", m.latency,
               m.blocks_received);
  std::fprintf(stderr,
               "sampled %zu series, %zu points, dt = %.1f ms\n",
               telemetry.timeline.numSeries(),
               telemetry.timeline.totalPoints(),
               telemetry.sample_dt / kMilliseconds);
  return 0;
}

/// Focused help for `robustore_cli tail --help`.
void tailUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s tail [options] [--trial N] [--slowest K] [--out DIR]\n"
      "  Runs the trials with the always-on flight recorder (compact\n"
      "  per-access event rings; zero engine events, zero rng draws) and\n"
      "  prints tail-latency forensics.\n"
      "  --trial N    forensics for ONE trial             (default: all)\n"
      "  --slowest K  outliers to attribute / expand      (default 3)\n"
      "  --out DIR    write the slowest K accesses as Chrome trace JSON\n"
      "               (DIR/tail_<rank>_trial<N>.json; load in Perfetto)\n"
      "  Output: a blame table (fraction of the >p90/>p99 tail dominated\n"
      "  by each stage) plus one attribution line per outlier — dominant\n"
      "  stage, reissue count, straggler disk and its busy seconds,\n"
      "  faults concurrent with the access. Takes the shared experiment\n"
      "  options (see `%s --help`) except --threads/--csv and the\n"
      "  trial-coupling flags; --scheme all defaults to robustore.\n",
      argv0, argv0);
}

/// `robustore_cli tail`: flight-recorder forensics over the trial pool.
/// Returns the process exit code.
int tailMain(int argc, char** argv) {
  std::int64_t only_trial = -1;
  std::uint32_t slowest = 3;
  std::string out_dir;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trial" && i + 1 < argc) {
      const auto v = countFlag(argv[++i], 0);
      if (!v) {
        tailUsage(stderr, argv[0]);
        return 2;
      }
      only_trial = static_cast<std::int64_t>(*v);
    } else if (arg == "--slowest" && i + 1 < argc) {
      const auto v = countFlag(argv[++i], 1);
      if (!v) {
        tailUsage(stderr, argv[0]);
        return 2;
      }
      slowest = static_cast<std::uint32_t>(*v);
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  bool help = false;
  const auto options = parse(static_cast<int>(rest.size()), rest.data(), help);
  if (help) {
    tailUsage(stdout, argv[0]);
    return 0;
  }
  if (!options || slowest == 0) {
    tailUsage(stderr, argv[0]);
    return 2;
  }
  if (core::ExperimentRunner::trialsAreCoupled(options->config)) {
    std::fprintf(stderr,
                 "tail: --reuse-file / --metadata-selection couple trials "
                 "and cannot be flight-recorded one trial at a time\n");
    return 2;
  }
  const client::SchemeKind kind =
      options->scheme.value_or(client::SchemeKind::kRobuStore);
  if (only_trial >= 0 &&
      only_trial >= static_cast<std::int64_t>(options->config.trials)) {
    std::fprintf(stderr, "tail: --trial %lld out of range (trials=%u)\n",
                 static_cast<long long>(only_trial), options->config.trials);
    return 2;
  }

  // Master recorder: retains the slowest K over the whole pool (the
  // retention rule is deterministic, so the ranking matches outliers()).
  core::ExperimentConfig config = options->config;
  config.flight = true;
  trace::FlightRecorderConfig master_cfg;
  master_cfg.keep_slowest = slowest;
  trace::FlightRecorder master(master_cfg);
  analysis::TailAttribution attribution;

  const std::uint32_t lo =
      only_trial >= 0 ? static_cast<std::uint32_t>(only_trial) : 0;
  const std::uint32_t hi = only_trial >= 0
                               ? static_cast<std::uint32_t>(only_trial) + 1
                               : config.trials;
  std::uint32_t incomplete = 0;
  for (std::uint32_t t = lo; t < hi; ++t) {
    trace::FlightRecorder per(config.flight_config);
    const metrics::AccessMetrics m = core::ExperimentRunner::runTrial(
        config, kind, t, /*trace_out=*/nullptr, /*telemetry_out=*/nullptr,
        &per);
    if (!m.complete) ++incomplete;
    attribution.addTrial(t, per);
    master.absorb(per);
  }

  const std::size_t pool = attribution.accesses().size();
  std::printf("%s: %zu accesses recorded (%u incomplete), %llu events, "
              "%llu faults logged\n",
              client::schemeName(kind), pool, incomplete,
              static_cast<unsigned long long>(master.eventsSeen()),
              static_cast<unsigned long long>(master.faultsLogged()));
  if (pool == 0) {
    std::printf("tail: nothing recorded\n");
    return 0;
  }

  const analysis::BlameTable b99 = attribution.blame(99.0);
  for (const double p : {90.0, 99.0}) {
    const analysis::BlameTable b = attribution.blame(p);
    std::printf("\nblame p%.0f: cut %.4fs, tail %u/%u", p, b.threshold,
                b.tail_count, b.total_accesses);
    if (b.tail_count == 0) {
      std::printf(" (no access strictly above the cut)\n");
      continue;
    }
    std::printf("  [reissue %u, block loss %u, faults %u, incomplete %u]\n",
                b.with_reissues, b.with_block_loss, b.with_faults,
                b.incomplete);
    for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
      if (b.fraction[s] <= 0.0) continue;
      std::printf("  %-16s %5.1f%%  (pool median %.4fs)\n",
                  trace::stageName(static_cast<trace::Stage>(s)),
                  b.fraction[s] * 100.0, b.median_stage_s[s]);
    }
  }

  std::printf("\nslowest %u accesses:\n", slowest);
  const auto top = attribution.outliers(slowest);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const analysis::TailAccess& a = *top[i];
    const std::uint8_t dom =
        analysis::TailAttribution::dominantStage(a.stages, b99.median_stage_s);
    std::printf("  #%zu trial %u: %.4fs%s, dominant %s, %u reissues",
                i + 1, a.trial, a.latency, a.complete ? "" : " (INCOMPLETE)",
                dom == trace::kNoStage
                    ? "none"
                    : trace::stageName(static_cast<trace::Stage>(dom)),
                a.reissues);
    if (a.straggler_disk != trace::kNoDisk) {
      std::printf(", straggler disk %u (%.4fs busy)", a.straggler_disk,
                  a.straggler_seconds);
    }
    std::printf(", %u faults in window\n", a.faults_in_window);
  }

  if (!out_dir.empty()) {
    // The retained set is the slowest K; rank them latency-descending
    // (insertion order breaks ties, matching outliers()).
    std::vector<const trace::FlightRecord*> recs;
    for (const auto& r : master.retained()) recs.push_back(r.get());
    std::stable_sort(recs.begin(), recs.end(),
                     [](const trace::FlightRecord* a,
                        const trace::FlightRecord* b) {
                       return a->latency() > b->latency();
                     });
    for (std::size_t i = 0; i < recs.size(); ++i) {
      trace::Tracer expanded(true);
      master.expand(*recs[i], expanded);
      const std::string path = out_dir + "/tail_" + std::to_string(i + 1) +
                               "_trial" + std::to_string(top.size() > i
                                                             ? top[i]->trial
                                                             : 0) +
                               ".json";
      if (!trace::writeChromeTraceJson(expanded, path)) {
        std::fprintf(stderr, "tail: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("expanded trace written to %s (%zu records%s)\n",
                  path.c_str(), expanded.records().size(),
                  recs[i]->wrapped() ? ", ring wrapped" : "");
    }
  }
  return 0;
}

/// Focused help for `robustore_cli chaos --help`.
void chaosUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s chaos [options]\n"
      "  Runs seeded randomized fault campaigns: each seed draws a scheme,\n"
      "  a cluster/access shape, and a schedule composed from the full\n"
      "  fault vocabulary (fail-stop, crash-recover, stall, slow-disk,\n"
      "  churn fail/replace, block corruption), then checks the run against\n"
      "  the end-to-end invariant battery (completion, acked reads, byte\n"
      "  conservation, quiesce, clock monotonicity, injection ledger,\n"
      "  repair convergence, metadata liveness).\n"
      "  --seeds A..B      inclusive seed range            (default 0..99)\n"
      "  --shrink          ddmin-minimize each failing schedule and write\n"
      "                    the repro JSON under --out\n"
      "  --replay FILE     run a repro file twice and verify the replays\n"
      "                    are bit-identical (exit 0 = identical)\n"
      "  --dump-plan FILE  write seed A's campaign plan as JSON\n"
      "  --digests FILE    write `seed digest` lines for the whole sweep\n"
      "                    (byte-comparable across thread counts)\n"
      "  --out DIR         where --shrink writes repro files  (default .)\n"
      "  --inject-bug backoff\n"
      "                    replace every campaign with the known-bug\n"
      "                    unclamped-backoff campaign (acceptance check:\n"
      "                    the completion invariant must catch it)\n"
      "  --threads N       campaign fan-out workers        (default:\n"
      "                    ROBUSTORE_THREADS, else all cores)\n"
      "  exit status: 0 = all campaigns clean, 1 = violations found,\n"
      "               2 = usage error\n",
      argv0);
}

/// Writes `text` to `path`. Returns success.
bool writeFileOrComplain(const std::string& text, const std::string& path,
                         const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos: cannot write %s %s\n", what, path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "chaos: short write to %s\n", path.c_str());
  return ok;
}

/// `robustore_cli chaos`: the randomized fault-campaign harness. Returns
/// the process exit code.
int chaosMain(int argc, char** argv) {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 99;
  bool shrink = false;
  bool inject_bug = false;
  std::string replay_path;
  std::string dump_path;
  std::string digests_path;
  std::string out_dir = ".";
  unsigned threads = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = value();
      const std::string_view range = v != nullptr ? v : "";
      const auto dots = range.find("..");
      const auto lo = core::parseUnsigned(range.substr(0, dots));
      const auto hi = dots == std::string_view::npos
                          ? std::nullopt
                          : core::parseUnsigned(range.substr(dots + 2));
      if (!lo || !hi || *hi < *lo) {
        std::fprintf(stderr, "chaos: --seeds wants A..B with A <= B\n");
        return 2;
      }
      seed_lo = *lo;
      seed_hi = *hi;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return 2;
      replay_path = v;
    } else if (arg == "--dump-plan") {
      const char* v = value();
      if (v == nullptr) return 2;
      dump_path = v;
    } else if (arg == "--digests") {
      const char* v = value();
      if (v == nullptr) return 2;
      digests_path = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return 2;
      out_dir = v;
    } else if (arg == "--threads") {
      const auto v = countFlag(value(), 0);
      if (!v) {
        chaosUsage(stderr, argv[0]);
        return 2;
      }
      threads = static_cast<unsigned>(*v);
    } else if (arg == "--inject-bug") {
      const char* v = value();
      if (v == nullptr || std::strcmp(v, "backoff") != 0) {
        std::fprintf(stderr, "chaos: known bugs: backoff\n");
        return 2;
      }
      inject_bug = true;
    } else if (arg == "--help" || arg == "-h") {
      chaosUsage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "chaos: unknown option %s\n", arg.c_str());
      chaosUsage(stderr, argv[0]);
      return 2;
    }
  }

  // Replay mode: load one repro file, run it twice, demand bit identity.
  if (!replay_path.empty()) {
    std::FILE* f = std::fopen(replay_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "chaos: cannot read %s\n", replay_path.c_str());
      return 2;
    }
    std::string json;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      json.append(buf, got);
    }
    std::fclose(f);
    const chaos::CampaignPlan plan = chaos::parsePlan(json);
    const chaos::CampaignResult first = chaos::runCampaign(plan);
    const chaos::CampaignResult second = chaos::runCampaign(plan);
    for (const chaos::Violation& v : first.violations) {
      std::printf("seed %" PRIu64 " [%s]: %s\n", plan.seed,
                  v.invariant.c_str(), v.detail.c_str());
    }
    std::printf("replay seed %" PRIu64 " (%s, %zu events): digest "
                "%016" PRIx64 " / %016" PRIx64 " — %s, %s\n",
                plan.seed, client::schemeName(plan.scheme),
                plan.events.size(), first.digest, second.digest,
                first.digest == second.digest ? "bit-identical"
                                              : "DIVERGED",
                first.passed() ? "clean" : "violations");
    return first.digest == second.digest ? 0 : 1;
  }

  const auto plan_for = [inject_bug](std::uint64_t seed) {
    return inject_bug ? chaos::buggyBackoffPlan(seed)
                      : chaos::planFromSeed(seed);
  };

  if (!dump_path.empty() &&
      !writeFileOrComplain(chaos::serializePlan(plan_for(seed_lo)), dump_path,
                           "plan")) {
    return 2;
  }

  // Fan the sweep out, reduce in seed order (index-slot determinism).
  const auto count = static_cast<std::uint32_t>(seed_hi - seed_lo + 1);
  std::vector<chaos::CampaignResult> results(count);
  {
    core::TrialPool pool(threads);
    pool.forEachIndex(count, [&](std::uint32_t i) {
      results[i] = chaos::runCampaign(plan_for(seed_lo + i));
    });
  }

  std::string digest_lines;
  std::vector<std::uint64_t> failing;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t seed = seed_lo + i;
    if (!digests_path.empty()) {
      char line[64];
      std::snprintf(line, sizeof line, "%" PRIu64 " %016" PRIx64 "\n", seed,
                    results[i].digest);
      digest_lines += line;
    }
    if (results[i].passed()) continue;
    failing.push_back(seed);
    for (const chaos::Violation& v : results[i].violations) {
      std::printf("seed %" PRIu64 " [%s]: %s\n", seed, v.invariant.c_str(),
                  v.detail.c_str());
    }
  }
  if (!digests_path.empty() &&
      !writeFileOrComplain(digest_lines, digests_path, "digest list")) {
    return 2;
  }

  if (shrink) {
    for (const std::uint64_t seed : failing) {
      const chaos::CampaignPlan plan = plan_for(seed);
      const chaos::ShrinkResult minimized = chaos::shrinkSchedule(
          plan, [](const chaos::CampaignPlan& candidate) {
            return !chaos::runCampaign(candidate).passed();
          });
      const std::string path =
          out_dir + "/chaos_seed_" + std::to_string(seed) + ".json";
      if (!writeFileOrComplain(chaos::serializePlan(minimized.minimized),
                               path, "repro")) {
        return 2;
      }
      std::printf("seed %" PRIu64 ": minimized %zu -> %zu events in %u runs, "
                  "repro %s\n",
                  seed, plan.events.size(), minimized.minimized.events.size(),
                  minimized.tests_run, path.c_str());
    }
  }

  std::printf("chaos: %u campaigns (seeds %" PRIu64 "..%" PRIu64 "), "
              "%zu failing\n",
              count, seed_lo, seed_hi, failing.size());
  return failing.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    return traceMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "timeline") == 0) {
    return timelineMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "tail") == 0) {
    return tailMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "chaos") == 0) {
    return chaosMain(argc, argv);
  }
  // A bare word in subcommand position is a typo'd subcommand, not an
  // experiment option: fail with usage instead of misparsing it.
  if (argc > 1 && argv[1][0] != '-') {
    std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
    usage(argv[0]);
    return 2;
  }
  bool help = false;
  const auto options = parse(argc, argv, help);
  if (help) {
    usage(argv[0]);
    return 0;
  }
  if (!options) {
    usage(argv[0]);
    return 2;
  }

  core::ExperimentRunner runner(options->config);
  std::vector<client::SchemeKind> kinds(std::begin(client::kAllSchemes),
                                        std::end(client::kAllSchemes));
  if (options->scheme) kinds = {*options->scheme};

  if (options->csv) {
    std::printf("scheme,trials,bandwidth_mbps,latency_s,latency_stddev_s,"
                "io_overhead,reception_overhead,incomplete\n");
  } else {
    std::printf("%-10s %10s %12s %14s %12s %12s\n", "scheme", "MBps",
                "latency", "lat stddev", "I/O ovh", "incomplete");
  }
  for (const auto kind : kinds) {
    const auto agg = runner.run(kind, options->run);
    if (options->csv) {
      std::printf("%s,%zu,%.3f,%.4f,%.4f,%.4f,%.4f,%zu\n",
                  client::schemeName(kind), agg.trials(),
                  agg.meanBandwidthMBps(), agg.meanLatency(),
                  agg.latencyStdDev(), agg.meanIoOverhead(),
                  agg.meanReceptionOverhead(), agg.incompleteCount());
    } else {
      std::printf("%-10s %10.1f %11.2fs %13.3fs %12.2f %12zu\n",
                  client::schemeName(kind), agg.meanBandwidthMBps(),
                  agg.meanLatency(), agg.latencyStdDev(),
                  agg.meanIoOverhead(), agg.incompleteCount());
    }
    std::fflush(stdout);
  }
  return 0;
}
