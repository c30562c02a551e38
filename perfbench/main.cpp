// perfbench: host-performance benchmark of the RobuSTore simulator.
//
//   perfbench --workload paper_mix|campaign|dataplane --seed N
//             --seconds S --trace 0|1 [--expect-digest HEX]
//             [--spans-out PATH]
//
// --trace 0 measures the end-to-end metrics with every observer off.
// --trace 1 runs the same operations twice, untraced then traced (the
// library's HostProfiler plus benchmark-side spans and allocation
// timing), and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md beside this file for what each metric means.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  WorkloadKind workload = WorkloadKind::kPaperMix;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool have_expected = false;
  std::uint64_t expected_digest = 0;
  std::string spans_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_mix|campaign|dataplane "
               "--seed N --seconds S --trace 0|1 [--expect-digest HEX] "
               "[--spans-out PATH]\n");
  return 2;
}

bool parseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto kind = parseWorkload(value);
      if (!kind) return false;
      args.workload = *kind;
      have_workload = true;
      continue;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
      continue;
    } else if (flag == "--expect-digest") {
      args.expected_digest = std::strtoull(value, &end, 16);
      args.have_expected = true;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
      continue;
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0' || end == value) return false;
  }
  return have_workload;
}

/// The benchmark decides what is observed: drop every ROBUSTORE_* knob
/// (threads, tracing, profiling, SIMD override) inherited from the shell.
void clearLibraryKnobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry = *e;
    if (entry.starts_with("ROBUSTORE_")) {
      names.emplace_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const auto& name : names) unsetenv(name.c_str());
}

/// Runs operations until `seconds` have passed and the checked prefix is
/// done — or until exactly `exact_ops` operations ran. `probe`, when
/// given, samples the host speed between operations.
std::vector<OpRecord> runPass(Workload& workload, double seconds,
                              std::size_t exact_ops, bool traced,
                              SpanRecorder* spans, SpeedProbe* probe) {
  using robustore::telemetry::HostProfiler;
  std::vector<OpRecord> ops;
  const double start = nowSeconds();
  setAllocTiming(traced);
  for (std::uint64_t op = 0;; ++op) {
    if (exact_ops > 0) {
      if (op == exact_ops) break;
    } else if (op >= workload.checkOps() && nowSeconds() - start >= seconds) {
      break;
    }
    const AllocCounts alloc0 = allocCounts();
    const ProcessCounters proc0 = processCounters();
    const auto profile0 = HostProfiler::globalSnapshot();
    OpRecord r;
    if (traced) {
      const HostProfiler::TrialGuard guard(/*active=*/true);
      r = workload.run(op, spans);
    } else {
      r = workload.run(op, nullptr);
    }
    const AllocCounts alloc1 = allocCounts();
    const ProcessCounters proc1 = processCounters();
    r.allocs = alloc1.allocs - alloc0.allocs;
    r.alloc_bytes = alloc1.bytes - alloc0.bytes;
    r.alloc_s = alloc1.seconds - alloc0.seconds;
    r.minor_faults = proc1.minor_faults - proc0.minor_faults;
    r.profile = profileDelta(HostProfiler::globalSnapshot(), profile0);
    ops.push_back(std::move(r));
    if (probe != nullptr) probe->maybeRun();
  }
  setAllocTiming(false);
  return ops;
}

/// Digest of the checked prefix: every simulated result of its operations.
std::uint64_t prefixDigest(const std::vector<OpRecord>& ops,
                           std::uint32_t check_ops) {
  Digest d;
  for (std::uint32_t i = 0; i < check_ops && i < ops.size(); ++i) {
    d.add(ops[i].digest);
  }
  return d.value();
}

void printResult(const Totals& totals, const MetricList& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              totals.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const char* name = workloadName(args.workload);
  auto workload = makeWorkload(args.workload, args.seed);
  const std::uint32_t check_ops = workload->checkOps();

  // Set-up, several times; the median is the set-up figure. An untraced
  // run's set-up and timed pass each take their own speed samples.
  SpeedProbe setup_probe(workload->speedProbe());
  SpeedProbe run_probe(workload->speedProbe());
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    const double t0 = nowSeconds();
    workload->setup(static_cast<std::uint32_t>(i));
    setup_s.push_back(nowSeconds() - t0);
    if (!args.trace) setup_probe.run();
  }

  Totals totals;
  MetricList metrics;
  std::vector<OpRecord> untraced;
  if (!args.trace) {
    untraced =
        runPass(*workload, args.seconds, 0, false, nullptr, &run_probe);
    totals.add(untraced);
  } else {
    untraced =
        runPass(*workload, args.seconds / 2, 0, false, nullptr, nullptr);
    SpanRecorder spans;
    std::vector<OpRecord> traced =
        runPass(*workload, 0.0, untraced.size(), true, &spans, nullptr);
    const std::optional<CodecRates> codec = workload->codecRates(&spans);
    totals.add(untraced);
    totals.add(traced);
    // Observation must change nothing: every traced result must equal
    // its untraced twin, bit for bit.
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (traced[i].digest != untraced[i].digest) {
        std::printf("traced op %zu digest differs from untraced\n", i);
        totals.failed += traced[i].accesses;
      }
    }
    if (codec.has_value() && !codec->verified) {
      std::printf("direct LT encode/decode did not reproduce the source\n");
      totals.attempted += 1;
      totals.failed += 1;
    }
    metrics = perLayerMetrics(untraced, traced, check_ops, spans, codec,
                              secondsPerMinorFault());
    if (!args.spans_out.empty() && !spans.writeJson(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }

  const std::uint64_t digest = prefixDigest(untraced, check_ops);
  std::printf("%s seed %llu: %zu ops, prefix digest %016llx\n", name,
              static_cast<unsigned long long>(args.seed), untraced.size(),
              static_cast<unsigned long long>(digest));
  if (args.have_expected && digest != args.expected_digest) {
    std::printf("prefix digest differs from the recorded %016llx\n",
                static_cast<unsigned long long>(args.expected_digest));
    for (std::uint32_t i = 0; i < check_ops && i < untraced.size(); ++i) {
      totals.failed += untraced[i].accesses;
    }
  }
  if (!args.trace) {
    std::printf("speed probe: median burst %.1f us in set-up, %.1f us over "
                "%zu bursts in the timed pass\n",
                1e6 * setup_probe.medianSeconds(),
                1e6 * run_probe.medianSeconds(), run_probe.samples());
    metrics = endToEndMetrics(
        untraced, *workload, median(setup_s) * setup_probe.toReference(),
        processCounters().peak_rss_mb, totals, run_probe.toReference());
  }
  printResult(totals, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) return perfbench::usage();
  perfbench::clearLibraryKnobs();
  return perfbench::run(args);
}
