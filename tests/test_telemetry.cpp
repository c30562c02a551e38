// The telemetry subsystem: metric registry semantics, timeline exports,
// the periodic sampler's grid/gap-compression behaviour on the engine's
// time observer, and the end-to-end runTrial integration. The integration
// tests pin the subsystem's core contract: sampling reads state only, so
// simulated results are bitwise identical with it on or off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/engine.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace robustore {
namespace {

TEST(MetricRegistry, GetOrCreateReturnsSameInstance) {
  telemetry::MetricRegistry reg;
  telemetry::Counter& a = reg.counter("events.total");
  a.increment(3);
  telemetry::Counter& b = reg.counter("events.total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);

  reg.gauge("queue.depth").set(7.5);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.depth").value(), 7.5);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, HistogramClampsNegativeAndNan) {
  telemetry::MetricRegistry reg;
  telemetry::QuantileHistogram& h = reg.histogram("x");
  h.record(-5.0);
  h.record(std::nan(""));
  EXPECT_EQ(&h, &reg.histogram("x"));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.zeroCount(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricRegistry, PrometheusTextFormat) {
  telemetry::MetricRegistry reg;
  reg.counter("events.total").increment(42);
  reg.gauge("disk.queue_depth").set(3.0);
  telemetry::QuantileHistogram& h = reg.histogram("latency.s");
  for (int i = 0; i < 100; ++i) h.record(1.0);
  h.record(2.0);

  const std::string text = reg.prometheusText();
  EXPECT_NE(text.find("# TYPE robustore_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("robustore_events_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE robustore_disk_queue_depth gauge"),
            std::string::npos);
  // Histograms are summaries: three fixed quantile lines, then sum and
  // count. The quantiles carry QuantileHistogram's half-bucket error
  // (1.0 sits at an octave bottom and reads back as 1 + 1/256).
  EXPECT_NE(text.find("# TYPE robustore_latency_s summary\n"
                      "robustore_latency_s{quantile=\"0.5\"} 1.00390625\n"
                      "robustore_latency_s{quantile=\"0.9\"} 1.00390625\n"
                      "robustore_latency_s{quantile=\"0.99\"} 1.00390625\n"
                      "robustore_latency_s_sum 102\n"
                      "robustore_latency_s_count 101\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("_bucket"), std::string::npos);
}

TEST(Timeline, SeriesAreStableAndOrdered) {
  telemetry::Timeline tl;
  telemetry::Timeline::Series& a = tl.series("alpha");
  tl.series("beta").add(1.0, 2.0);
  telemetry::Timeline::Series& a2 = tl.series("alpha");
  EXPECT_EQ(&a, &a2);
  a.add(0.5, 1.0);
  EXPECT_EQ(tl.numSeries(), 2u);
  EXPECT_EQ(tl.totalPoints(), 2u);
  EXPECT_EQ(tl.allSeries()[0].name, "alpha");
  EXPECT_EQ(tl.allSeries()[1].name, "beta");
  EXPECT_DOUBLE_EQ(tl.allSeries()[1].last(), 2.0);
}

TEST(Timeline, CsvAndJsonExports) {
  telemetry::Timeline tl;
  tl.series("q").add(0.0, 1.0);
  tl.series("q").add(0.01, 2.0);

  const std::string csv = tl.toCsv();
  EXPECT_EQ(csv.rfind("t_s,series,value\n", 0), 0u);
  EXPECT_NE(csv.find("0.01,q,2"), std::string::npos);

  const std::string json = tl.toJson(0.01);
  EXPECT_TRUE(trace::validJson(json)) << json;
  EXPECT_NE(json.find("\"sample_dt_s\""), std::string::npos);
  EXPECT_NE(json.find("\"q\""), std::string::npos);
  // sample_dt 0 omits the interval field.
  EXPECT_EQ(tl.toJson(0.0).find("sample_dt_s"), std::string::npos);
}

TEST(Timeline, NonFiniteGaugeValuesSerializeDeterministically) {
  // printf's "nan" carries an implementation-defined sign and "inf" is
  // not a JSON token: the exporters pin fixed tokens instead, so exports
  // are byte-identical across libcs and the JSON stays parseable.
  telemetry::Timeline tl;
  tl.series("g").add(0.0, std::nan(""));
  tl.series("g").add(0.01, -std::nan(""));  // sign must not leak
  tl.series("g").add(0.02, std::numeric_limits<double>::infinity());
  tl.series("g").add(0.03, -std::numeric_limits<double>::infinity());
  tl.series("g").add(0.04, 1.5);

  const std::string csv = tl.toCsv();
  EXPECT_NE(csv.find("0,g,NaN\n"), std::string::npos);
  EXPECT_NE(csv.find("0.01,g,NaN\n"), std::string::npos);  // not "-NaN"
  EXPECT_NE(csv.find("0.02,g,Inf\n"), std::string::npos);
  EXPECT_NE(csv.find("0.03,g,-Inf\n"), std::string::npos);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);

  const std::string json = tl.toJson(0.0);
  EXPECT_TRUE(trace::validJson(json)) << json;
  // JSON quotes the tokens (bare NaN/Inf are not valid JSON values).
  EXPECT_NE(json.find("[0,\"NaN\"]"), std::string::npos);
  EXPECT_NE(json.find("[0.02,\"Inf\"]"), std::string::npos);
  EXPECT_NE(json.find("[0.03,\"-Inf\"]"), std::string::npos);
  EXPECT_NE(json.find("[0.04,1.5]"), std::string::npos);
}

TEST(Timeline, SnapshotToRegistry) {
  telemetry::Timeline tl;
  tl.series("depth").add(0.0, 2.0);
  tl.series("depth").add(0.01, 6.0);
  telemetry::MetricRegistry reg;
  telemetry::snapshotToRegistry(tl, reg);
  EXPECT_EQ(reg.counter("telemetry.series").value(), 1u);
  EXPECT_EQ(reg.counter("telemetry.samples").value(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 6.0);
  EXPECT_EQ(reg.histogram("depth").count(), 2u);
}

TEST(PeriodicSampler, SamplesOnTheGrid) {
  telemetry::Timeline tl;
  telemetry::PeriodicSampler sampler(0.010, tl);
  int probed = 0;
  sampler.addProbe("x", [&probed](SimTime) {
    ++probed;
    return static_cast<double>(probed);
  });

  sim::Engine engine;
  engine.setTimeObserver(
      [&sampler](SimTime now) { sampler.onTimeAdvance(now); });
  for (int i = 1; i <= 4; ++i) {
    engine.schedule(i * 0.010, [] {});
  }
  engine.run();

  const telemetry::Timeline::Series& s = tl.allSeries()[0];
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.t[0], 0.010);
  EXPECT_DOUBLE_EQ(s.t[3], 0.040);
  EXPECT_EQ(probed, 4);
}

TEST(PeriodicSampler, GapCompressionSamplesFirstAndLastPendingPoint) {
  telemetry::Timeline tl;
  telemetry::PeriodicSampler sampler(0.010, tl);
  sampler.addProbe("x", [](SimTime) { return 1.0; });

  sim::Engine engine;
  engine.setTimeObserver(
      [&sampler](SimTime now) { sampler.onTimeAdvance(now); });
  // One event a full simulated hour out: the clock jump crosses 360k grid
  // points; only the first and last pending points are sampled.
  engine.schedule(3600.0, [] {});
  engine.run();

  const telemetry::Timeline::Series& s = tl.allSeries()[0];
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.t[0], 0.010);
  EXPECT_NEAR(s.t[1], 3600.0, 0.010 + 1e-9);
}

TEST(PeriodicSampler, SampleNowIsOffGridAndMonotonic) {
  telemetry::Timeline tl;
  telemetry::PeriodicSampler sampler(0.010, tl);
  sampler.addProbe("x", [](SimTime) { return 1.0; });
  sampler.sampleNow(0.0);
  sampler.sampleNow(0.0);  // duplicate timestamp: no-op
  sampler.sampleNow(0.0425);
  const telemetry::Timeline::Series& s = tl.allSeries()[0];
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.t[0], 0.0);
  EXPECT_DOUBLE_EQ(s.t[1], 0.0425);
  // The grid realigns after an off-grid sample: next point is 0.050
  // (compared with a tolerance — the grid point is accumulated floating
  // point, not the literal).
  sampler.onTimeAdvance(0.0501);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s.t[2], 0.050, 1e-9);
}

TEST(PeriodicSampler, EmitsCounterRecordsWhenTraced) {
  telemetry::Timeline tl;
  trace::Tracer tracer;
  telemetry::PeriodicSampler sampler(0.010, tl, &tracer);
  sampler.addProbe("queue.depth", [](SimTime) { return 4.0; });
  sampler.sampleNow(0.010);
  ASSERT_EQ(tracer.records().size(), 1u);
  const trace::Record& r = tracer.records()[0];
  EXPECT_TRUE(r.counter);
  EXPECT_STREQ(r.name, "queue.depth");
  EXPECT_DOUBLE_EQ(r.value, 4.0);
  EXPECT_EQ(r.track, trace::kTelemetryTrack);
}

core::ExperimentConfig miniConfig() {
  core::ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.disks_per_access = 8;
  cfg.access.k = 16;
  cfg.trials = 1;
  cfg.seed = 99;
  return cfg;
}

TEST(TrialTelemetry, RunTrialCollectsTheStandardSeries) {
  core::ExperimentConfig cfg = miniConfig();
  telemetry::TrialTelemetry telemetry;
  const metrics::AccessMetrics m = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, nullptr, &telemetry);
  EXPECT_TRUE(m.complete);
  EXPECT_DOUBLE_EQ(telemetry.sample_dt, 0.010);  // default grid

  std::set<std::string> names;
  for (const auto& s : telemetry.timeline.allSeries()) names.insert(s.name);
  for (const char* required :
       {"disk.queue_depth", "disk.utilization", "disk.outstanding",
        "link.inflight_bytes", "net.bytes_total", "scheme.live_requests",
        "scheme.blocks_received", "decoder.blocks_received",
        "decoder.blocks_needed", "decoder.ready_symbols",
        "decoder.buffered_symbols"}) {
    EXPECT_TRUE(names.count(required)) << "missing series: " << required;
  }
  // Per-disk series for each of the 8 roster disks, two series each.
  std::size_t per_disk = 0;
  for (const auto& n : names) {
    if (n.rfind("disk.d", 0) == 0) ++per_disk;
  }
  EXPECT_EQ(per_disk, 16u);

  // The decoder finished: its final ready count equals K.
  EXPECT_DOUBLE_EQ(
      telemetry.timeline.series("decoder.blocks_needed").last(), 16.0);
  // Registry snapshot mirrors the timeline.
  EXPECT_EQ(telemetry.registry.counter("telemetry.series").value(),
            telemetry.timeline.numSeries());
}

TEST(TrialTelemetry, FaultSeriesAppearWhenFaultsArePlanned) {
  core::ExperimentConfig cfg = miniConfig();
  fault::FaultSpec spec;
  spec.disk = 0;
  spec.kind = fault::FaultKind::kFailStop;
  spec.at = 0.050;
  cfg.faults.scripted.push_back(spec);
  telemetry::TrialTelemetry telemetry;
  (void)core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, nullptr, &telemetry);
  EXPECT_GE(telemetry.timeline.series("fault.injected_total").last(), 1.0);
  EXPECT_GE(telemetry.timeline.series("fault.failed_disks").last(), 1.0);
}

TEST(TrialTelemetry, SamplingNeverChangesSimulatedResults) {
  core::ExperimentConfig cfg = miniConfig();
  const metrics::AccessMetrics plain = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0);

  telemetry::TrialTelemetry telemetry;
  telemetry.sample_dt = 0.001;
  const metrics::AccessMetrics with = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, nullptr, &telemetry);

  EXPECT_EQ(std::memcmp(&plain.latency, &with.latency, sizeof plain.latency),
            0);
  EXPECT_EQ(plain.network_bytes, with.network_bytes);
  EXPECT_EQ(plain.blocks_received, with.blocks_received);
  EXPECT_EQ(plain.cache_hits, with.cache_hits);
  EXPECT_GT(telemetry.timeline.totalPoints(), 0u);
}

}  // namespace
}  // namespace robustore
