// The tracing layer: record semantics, zero-overhead-when-disabled,
// deterministic Chrome trace_event export, and the per-stage latency
// breakdown folded through AccessMetrics. The integration tests pin the
// two contracts that make tracing safe to leave on: it never perturbs a
// simulation result, and its output is identical across thread counts.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "client/cluster.hpp"
#include "client/robustore_scheme.hpp"
#include "core/experiment.hpp"
#include "sim/engine.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace robustore {
namespace {

TEST(StageBreakdown, AccumulatesAndMerges) {
  trace::StageBreakdown b;
  EXPECT_TRUE(b.empty());
  b.addSpan(trace::Stage::kDiskSeek, 0.25);
  b.addSpan(trace::Stage::kDiskSeek, 0.75);
  b.addSpan(trace::Stage::kNetTransfer, 0.5);
  EXPECT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.stageSeconds(trace::Stage::kDiskSeek), 1.0);
  EXPECT_EQ(b.stageSpans(trace::Stage::kDiskSeek), 2u);
  EXPECT_EQ(b.stageSpans(trace::Stage::kDiskRotate), 0u);

  trace::StageBreakdown other;
  other.addSpan(trace::Stage::kDiskSeek, 1.0);
  other.addSpan(trace::Stage::kClientDecode, 0.125);
  b += other;
  EXPECT_DOUBLE_EQ(b.stageSeconds(trace::Stage::kDiskSeek), 2.0);
  EXPECT_EQ(b.stageSpans(trace::Stage::kDiskSeek), 3u);
  EXPECT_EQ(b.stageSpans(trace::Stage::kClientDecode), 1u);
}

TEST(Tracer, RecordsSpansAndInstantsInOrder) {
  trace::Tracer t;
  t.span(trace::Stage::kDiskSeek, 1.0, 2.0, 7, trace::diskTrack(3), 3, 42);
  t.namedSpan("client.access", 0.0, 3.0, 7, trace::kClientTrack);
  t.instant("fault.fail_stop", 1.5, 0, trace::kFaultTrack, 3);
  ASSERT_EQ(t.records().size(), 3u);

  const trace::Record& seek = t.records()[0];
  EXPECT_STREQ(seek.name, "disk.seek");
  EXPECT_EQ(seek.stage, static_cast<std::uint8_t>(trace::Stage::kDiskSeek));
  EXPECT_FALSE(seek.instant);
  EXPECT_DOUBLE_EQ(seek.begin, 1.0);
  EXPECT_DOUBLE_EQ(seek.end, 2.0);
  EXPECT_EQ(seek.access, 7u);
  EXPECT_EQ(seek.disk, 3u);
  EXPECT_EQ(seek.ref, 42u);

  const trace::Record& envelope = t.records()[1];
  EXPECT_STREQ(envelope.name, "client.access");
  EXPECT_EQ(envelope.stage, trace::kNoStage);

  const trace::Record& fault = t.records()[2];
  EXPECT_TRUE(fault.instant);
  EXPECT_EQ(fault.access, 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  trace::Tracer off(false);
  EXPECT_FALSE(off.enabled());
  off.span(trace::Stage::kDiskSeek, 0.0, 1.0, 1, trace::kClientTrack);
  off.namedSpan("client.access", 0.0, 1.0, 1, trace::kClientTrack);
  off.instant("fault.fail_stop", 0.5, 0, trace::kFaultTrack);
  trace::Tracer donor;
  donor.instant("fault.recover", 0.5, 0, trace::kFaultTrack);
  off.append(donor);
  EXPECT_TRUE(off.records().empty());
  EXPECT_TRUE(off.breakdown().empty());
}

TEST(Tracer, AppendMergesInArgumentOrder) {
  trace::Tracer a;
  a.instant("first", 0.0, 1, trace::kClientTrack);
  trace::Tracer b;
  b.instant("second", 0.0, 2, trace::kClientTrack);
  a.append(b);
  ASSERT_EQ(a.records().size(), 2u);
  EXPECT_STREQ(a.records()[0].name, "first");
  EXPECT_STREQ(a.records()[1].name, "second");
}

TEST(Tracer, BreakdownFiltersByAccess) {
  trace::Tracer t;
  t.span(trace::Stage::kDiskSeek, 0.0, 1.0, 1, trace::diskTrack(0), 0);
  t.span(trace::Stage::kDiskSeek, 0.0, 2.0, 2, trace::diskTrack(1), 1);
  t.instant("fault.fail_stop", 0.5, 1, trace::kFaultTrack);  // not a span
  const trace::StageBreakdown one = t.breakdown(1);
  EXPECT_DOUBLE_EQ(one.stageSeconds(trace::Stage::kDiskSeek), 1.0);
  EXPECT_EQ(one.stageSpans(trace::Stage::kDiskSeek), 1u);
  const trace::StageBreakdown all = t.breakdown(0);
  EXPECT_DOUBLE_EQ(all.stageSeconds(trace::Stage::kDiskSeek), 3.0);
  EXPECT_EQ(all.stageSpans(trace::Stage::kDiskSeek), 2u);
}

TEST(ChromeTrace, GoldenExportIsStable) {
  // Exact serialisation contract: equal tracers must serialise to equal
  // bytes (the cross-thread-count byte-identity guarantee rides on it).
  trace::Tracer t;
  t.span(trace::Stage::kDiskSeek, 0.001, 0.002, 7, trace::diskTrack(3), 3,
         42);
  t.instant("fault.fail_stop", 0.0005, 0, trace::kFaultTrack);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":7,"
      "\"args\":{\"name\":\"access 7\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":7,\"tid\":13,"
      "\"args\":{\"name\":\"disk 3\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"system\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"faults\"}},\n"
      "{\"name\":\"disk.seek\",\"cat\":\"disk\",\"ph\":\"X\","
      "\"ts\":1000.000,\"dur\":1000.000,\"pid\":7,\"tid\":13,"
      "\"args\":{\"disk\":3,\"ref\":42}},\n"
      "{\"name\":\"fault.fail_stop\",\"cat\":\"fault\",\"ph\":\"i\","
      "\"ts\":500.000,\"s\":\"t\",\"pid\":0,\"tid\":1,\"args\":{}}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(toChromeTraceJson(t), expected);
  EXPECT_EQ(toChromeTraceJson(t), toChromeTraceJson(t));
}

TEST(ChromeTrace, ExportFiltersToOneAccess) {
  trace::Tracer t;
  t.span(trace::Stage::kDiskSeek, 0.0, 1.0, 1, trace::diskTrack(0), 0);
  t.span(trace::Stage::kDiskSeek, 0.0, 1.0, 2, trace::diskTrack(0), 0);
  const std::string only_two = trace::toChromeTraceJson(t, 2);
  EXPECT_EQ(only_two.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(only_two.find("\"pid\":2"), std::string::npos);
  EXPECT_TRUE(trace::validJson(only_two));
}

TEST(Tracer, InternDeduplicatesAndSurvivesAppend) {
  trace::Tracer t;
  const std::string built = std::string("disk.d") + "7" + ".queue_depth";
  const char* a = t.intern(built);
  const char* b = t.intern("disk.d7.queue_depth");
  EXPECT_EQ(a, b);  // same pooled pointer, not just equal bytes

  trace::Tracer donor;
  donor.counter(donor.intern("scratch.series"), 0.5, 3.0);
  t.append(donor);
  // append() re-interned the name into t's pool; the donor may die.
  const trace::Record moved = t.records().back();
  trace::Tracer().append(donor);  // unrelated churn
  EXPECT_STREQ(moved.name, "scratch.series");
}

TEST(Tracer, CounterRecordsCarryValueAndTrack) {
  trace::Tracer t;
  t.counter("disk.queue_depth", 0.25, 4.0);
  ASSERT_EQ(t.records().size(), 1u);
  const trace::Record& r = t.records()[0];
  EXPECT_TRUE(r.counter);
  EXPECT_FALSE(r.instant);
  EXPECT_STREQ(r.name, "disk.queue_depth");
  EXPECT_DOUBLE_EQ(r.value, 4.0);
  EXPECT_DOUBLE_EQ(r.begin, 0.25);
  EXPECT_EQ(r.track, trace::kTelemetryTrack);

  trace::Tracer off(false);
  off.counter("disk.queue_depth", 0.25, 4.0);
  EXPECT_TRUE(off.records().empty());
}

TEST(ChromeTrace, CounterRecordsExportAsCounterTracks) {
  trace::Tracer t;
  t.counter("decoder.blocks_received", 0.010, 12.0);
  t.counter("decoder.blocks_received", 0.020, 31.0);
  const std::string json = trace::toChromeTraceJson(t);
  EXPECT_TRUE(trace::validJson(json));
  // Chrome's counter phase with the sampled value as the plotted arg.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"decoder.blocks_received\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":31"), std::string::npos) << json;
  // The telemetry lane is labelled so Perfetto shows a named track.
  EXPECT_NE(json.find("\"name\":\"telemetry\""), std::string::npos) << json;
}

TEST(ChromeTrace, EscapesHostileRecordNames) {
  trace::Tracer t;
  t.instant(t.intern("weird \"name\" \\ with\nnewline\ttab"), 0.001, 0,
            trace::kFaultTrack);
  const std::string json = trace::toChromeTraceJson(t);
  EXPECT_TRUE(trace::validJson(json)) << json;
  EXPECT_NE(json.find("weird \\\"name\\\" \\\\ with\\nnewline\\ttab"),
            std::string::npos)
      << json;
}

TEST(ChromeTrace, EmptyTracerExportsValidJson) {
  const trace::Tracer empty;
  const std::string json = trace::toChromeTraceJson(empty);
  EXPECT_TRUE(trace::validJson(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  trace::Tracer disabled(false);
  disabled.instant("fault.fail_stop", 0.5, 0, trace::kFaultTrack);
  EXPECT_TRUE(trace::validJson(trace::toChromeTraceJson(disabled)));
}

TEST(ChromeTrace, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(trace::validJson("{}"));
  EXPECT_TRUE(trace::validJson("[1, 2.5, -3e4, \"x\", true, false, null]"));
  EXPECT_TRUE(trace::validJson("{\"a\":{\"b\":[{}]}}"));
  EXPECT_TRUE(trace::validJson("  {\"k\": \"esc\\\"aped\"}  "));
  EXPECT_FALSE(trace::validJson(""));
  EXPECT_FALSE(trace::validJson("{"));
  EXPECT_FALSE(trace::validJson("{\"a\":}"));
  EXPECT_FALSE(trace::validJson("[1,]"));
  EXPECT_FALSE(trace::validJson("{} trailing"));
  EXPECT_FALSE(trace::validJson("{\"unterminated"));
  EXPECT_TRUE(trace::validJson(trace::toChromeTraceJson(trace::Tracer{})));
}

// ---------------------------------------------------------------------------
// Integration: tracing a real simulated access.

class TraceIntegrationFixture : public ::testing::Test {
 protected:
  TraceIntegrationFixture() {
    cluster_config.num_servers = 2;
    cluster_config.server.disks_per_server = 2;
    access.k = 8;
    access.block_bytes = 64 * kKiB;
    access.redundancy = 2.0;
    access.timeout = 60.0;
    policy.heterogeneous = false;
  }

  std::vector<std::uint32_t> allDisks() { return {0, 1, 2, 3}; }

  /// A small independent-trial experiment mirroring the fixture testbed.
  core::ExperimentConfig experimentConfig() {
    core::ExperimentConfig cfg;
    cfg.num_servers = 2;
    cfg.disks_per_server = 2;
    cfg.disks_per_access = 4;
    cfg.access = access;
    cfg.layout = policy;
    cfg.trials = 4;
    cfg.seed = 97;
    return cfg;
  }

  client::ClusterConfig cluster_config;
  client::AccessConfig access;
  client::LayoutPolicy policy;
};

TEST_F(TraceIntegrationFixture, TracedAccessHasCompleteSpanTree) {
  sim::Engine engine;
  client::Cluster cluster(engine, cluster_config, Rng(1));
  trace::Tracer tracer;
  // Per-access stage sums reach AccessMetrics through the recorder
  // riding on the tracer, as core::Stack wires it.
  trace::FlightRecorder recorder;
  tracer.setSink(&recorder);
  cluster.attachTracer(&tracer);
  client::RobuStoreScheme scheme(cluster);
  Rng trial(2);
  auto file = scheme.planFile(access, allDisks(), policy, trial);
  const auto m = scheme.read(file, access);
  ASSERT_TRUE(m.complete);

  std::set<std::string> names;
  for (const auto& r : tracer.records()) {
    names.insert(r.name);
    EXPECT_GE(r.end, r.begin) << r.name;
    EXPECT_GE(r.begin, 0.0) << r.name;
  }
  // Every stage of the data path plus the whole-access envelope.
  for (const char* expected :
       {"disk.queue_wait", "disk.overhead", "disk.seek", "disk.rotate",
        "disk.transfer", "net.transfer", "server.forward", "client.decode",
        "client.access"}) {
    EXPECT_TRUE(names.contains(expected)) << expected;
  }

  // The metrics carry the same breakdown the tracer computed.
  const trace::StageBreakdown b = tracer.breakdown(1);  // first stream id
  EXPECT_FALSE(m.stages.empty());
  EXPECT_DOUBLE_EQ(m.stages.stageSeconds(trace::Stage::kDiskSeek),
                   b.stageSeconds(trace::Stage::kDiskSeek));
  // The envelope span covers the whole access including the decode tail.
  for (const auto& r : tracer.records()) {
    if (std::string(r.name) == "client.access") {
      EXPECT_DOUBLE_EQ(r.end - r.begin, m.latency);
    }
  }
}

TEST_F(TraceIntegrationFixture, TracingDoesNotPerturbMetrics) {
  const auto run = [&](bool traced) {
    sim::Engine engine;
    client::Cluster cluster(engine, cluster_config, Rng(5));
    trace::Tracer tracer;
    trace::FlightRecorder recorder;
    tracer.setSink(&recorder);
    if (traced) cluster.attachTracer(&tracer);
    client::RobuStoreScheme scheme(cluster);
    Rng trial(6);
    auto file = scheme.planFile(access, allDisks(), policy, trial);
    return scheme.read(file, access);
  };
  const auto plain = run(false);
  const auto traced = run(true);
  ASSERT_TRUE(plain.complete);
  // Bitwise equality: attaching a tracer must not move a single event.
  EXPECT_EQ(plain.latency, traced.latency);
  EXPECT_EQ(plain.network_bytes, traced.network_bytes);
  EXPECT_EQ(plain.blocks_received, traced.blocks_received);
  EXPECT_TRUE(plain.stages.empty());
  EXPECT_FALSE(traced.stages.empty());
}

TEST_F(TraceIntegrationFixture, StageMeansIdenticalAcrossThreadCounts) {
  core::ExperimentConfig cfg = experimentConfig();
  cfg.flight = true;
  core::ExperimentRunner runner(cfg);
  core::RunOptions serial;
  serial.threads = 1;
  core::RunOptions parallel;
  parallel.threads = 4;
  const auto a = runner.run(client::SchemeKind::kRobuStore, serial);
  const auto b = runner.run(client::SchemeKind::kRobuStore, parallel);
  EXPECT_EQ(a.meanLatency(), b.meanLatency());
  for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
    const auto stage = static_cast<trace::Stage>(s);
    EXPECT_EQ(a.meanStageSeconds(stage), b.meanStageSeconds(stage))
        << trace::stageName(stage);
  }
}

TEST_F(TraceIntegrationFixture, ChromeJsonDeterministicAcrossRuns) {
  const core::ExperimentConfig cfg = experimentConfig();
  trace::Tracer t1;
  trace::Tracer t2;
  const auto m1 = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, &t1);
  const auto m2 = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, &t2);
  ASSERT_TRUE(m1.complete);
  EXPECT_EQ(m1.latency, m2.latency);
  const std::string j1 = trace::toChromeTraceJson(t1);
  EXPECT_EQ(j1, trace::toChromeTraceJson(t2));
  EXPECT_TRUE(trace::validJson(j1));
  EXPECT_FALSE(t1.records().empty());
}

TEST_F(TraceIntegrationFixture, MergedTrialTracesAreOrderIndependent) {
  // The parallel driver appends per-trial tracers in trial order; the
  // merged trace must equal a serial run that traced into one tracer.
  const core::ExperimentConfig cfg = experimentConfig();
  trace::Tracer merged;
  for (std::uint32_t t = 0; t < cfg.trials; ++t) {
    (void)core::ExperimentRunner::runTrial(
        cfg, client::SchemeKind::kRobuStore, t, &merged);
  }
  trace::Tracer merged_again;
  for (std::uint32_t t = 0; t < cfg.trials; ++t) {
    trace::Tracer local;
    (void)core::ExperimentRunner::runTrial(
        cfg, client::SchemeKind::kRobuStore, t, &local);
    merged_again.append(local);
  }
  EXPECT_EQ(trace::toChromeTraceJson(merged),
            trace::toChromeTraceJson(merged_again));
}

TEST_F(TraceIntegrationFixture, FaultAndReissueEventsAppear) {
  core::ExperimentConfig cfg = experimentConfig();
  cfg.access.request_timeout = 10.0;
  cfg.access.max_reissues = 4;
  cfg.access.reissue_delay = 0.05;
  fault::FaultSpec spec;
  spec.disk = 0;
  spec.kind = fault::FaultKind::kFailStop;
  spec.at = 0.01;
  cfg.faults.scripted.push_back(spec);

  trace::Tracer tracer;
  const auto m = core::ExperimentRunner::runTrial(
      cfg, client::SchemeKind::kRobuStore, 0, &tracer);
  EXPECT_TRUE(m.complete);
  EXPECT_GT(m.failures_survived, 0u);

  std::set<std::string> names;
  for (const auto& r : tracer.records()) names.insert(r.name);
  EXPECT_TRUE(names.contains("fault.inject.fail_stop"));
  EXPECT_TRUE(names.contains("fault.abort"));
  // The lost blocks were re-issued with backoff, visibly.
  EXPECT_GT(tracer.breakdown(0).stageSpans(trace::Stage::kClientReissue), 0u);
}

}  // namespace
}  // namespace robustore
