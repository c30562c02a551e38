// Tests of the benchmark's own arithmetic: the tail-percentile rule, span
// self time, the stability of result digests, and the speed probe's scale.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"
#include "telemetry/host_profiler.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void testPercentileRule() {
  using perfbench::tailPercentile;
  check(tailPercentile(oneTo(100), 0.9) == 90.0,
        "p90 of 100 samples is rank 90, with 10 samples beyond it");
  check(!tailPercentile(oneTo(99), 0.9).has_value(),
        "p90 of 99 samples is refused: only 9 lie beyond rank 90");
  check(tailPercentile(oneTo(200), 0.9) == 180.0, "p90 of 200 samples");
  check(!tailPercentile(oneTo(1000), 0.995).has_value(),
        "p99.5 of 1000 samples is refused: 5 beyond");
  check(tailPercentile(oneTo(20), 0.5, 10) == 10.0,
        "p50 of 20 samples keeps 10 beyond");
  check(!tailPercentile({}, 0.9).has_value(), "no samples, no percentile");
  check(perfbench::median(oneTo(5)) == 3.0, "median, odd count");
  check(perfbench::median(oneTo(4)) == 2.5, "median, even count");
}

void testSelfTime() {
  perfbench::SpanRecorder r;
  const auto root =
      static_cast<std::int64_t>(r.add({"root", 0.0, 10.0, -1, 0}));
  // Two children overlapping each other on [3, 4], and a third that
  // sticks out past the parent's end: covered = [1, 6] + [9, 10] = 6.
  const auto a = static_cast<std::int64_t>(r.add({"a", 1.0, 4.0, root, 0}));
  r.add({"b", 3.0, 6.0, root, 0});
  r.add({"c", 9.0, 12.0, root, 0});
  // A grandchild only shortens its own parent.
  r.add({"a.x", 2.0, 3.0, a, 0});
  const auto self = r.selfSeconds();
  check(near(self[0], 4.0), "root self time skips overlapping children once");
  check(near(self[1], 2.0), "child self time subtracts its grandchild");
  check(near(self[2], 3.0), "leaf self time is its duration");
  check(near(self[3], 3.0), "a child past the parent's end keeps its time");

  perfbench::SpanRecorder nested;
  {
    const perfbench::SpanRecorder::Scope outer(&nested, "outer", 7);
    const perfbench::SpanRecorder::Scope inner(&nested, "inner", 7);
  }
  const auto& spans = nested.spans();
  check(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1 &&
            spans[1].access == 7,
        "scopes record their parent and access id");
  const perfbench::SpanRecorder::Scope off(nullptr, "off", 0);
  check(nested.durations("off").empty(), "a null recorder records nothing");
}

std::uint64_t runDigest(perfbench::WorkloadKind kind, std::uint64_t ops,
                        bool profiled) {
  auto w = perfbench::makeWorkload(kind, 1);
  w->setup(0);
  perfbench::Digest d;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const robustore::telemetry::HostProfiler::TrialGuard guard(profiled);
    d.add(w->run(op, nullptr).digest);
  }
  return d.value();
}

void testDigest() {
  perfbench::Digest empty;
  check(empty.value() == 0xcbf29ce484222325ULL, "digest starts at FNV basis");
  perfbench::Digest one;
  one.add(std::uint64_t{0});
  perfbench::Digest again;
  again.add(0.0);
  check(one.value() == again.value(), "a double digests as its bit pattern");

  using perfbench::WorkloadKind;
  const auto mix = runDigest(WorkloadKind::kPaperMix, 8, false);
  check(mix == runDigest(WorkloadKind::kPaperMix, 8, false),
        "paper_mix digest repeats across two runs");
  check(mix == runDigest(WorkloadKind::kPaperMix, 8, true),
        "paper_mix digest is unchanged by host profiling");
  check(runDigest(WorkloadKind::kCampaign, 1, false) ==
            runDigest(WorkloadKind::kCampaign, 1, false),
        "campaign digest repeats across two runs");
}

void testSpeedProbe() {
  perfbench::SpeedProbe probe(perfbench::ProbeKind::kAlloc);
  check(probe.toReference() == 1.0,
        "a probe without samples leaves host seconds as they are");
  probe.run();
  probe.maybeRun();  // within 100 bursts' time of the last: skipped
  probe.run();
  probe.run();
  check(probe.samples() == 3, "maybeRun skips a burst right after another");
  check(near(probe.toReference() * probe.medianSeconds(),
             probe.referenceSeconds()),
        "reference seconds scale with the median burst time");
}

}  // namespace

int main() {
  testPercentileRule();
  testSelfTime();
  testDigest();
  testSpeedProbe();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
