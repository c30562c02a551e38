// trace::FlightRecorder: the always-on per-access event ring behind tail
// forensics. Pins the determinism invariant (recording on vs off leaves
// every simulated result bitwise identical and schedules zero extra
// engine events), exact stage totals across ring wrap, the deterministic
// slowest-K retention rule, per-stream lifecycle reuse, agreement with a
// full tracer's breakdown, fault-log windowing, straggler attribution,
// and expansion back into a valid Chrome trace.

#include "trace/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/experiment.hpp"
#include "core/multi_client.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace robustore::trace {
namespace {

/// A sink-only tracer plus recorder, the always-on wiring the schemes
/// use: disabled tracer, recorder attached as sink.
struct Rig {
  FlightRecorder recorder;
  Tracer tracer{false};
  explicit Rig(FlightRecorderConfig config = {}) : recorder(config) {
    tracer.setSink(&recorder);
  }
};

TEST(FlightRecorder, DisabledTracerStillFeedsTheSink) {
  Rig rig;
  rig.recorder.beginAccess(7, 0.0);
  rig.tracer.span(Stage::kDiskSeek, 0.0, 0.25, 7, diskTrack(3), 3);
  rig.tracer.instant("client.block_lost", 0.3, 7, kClientTrack);
  rig.recorder.endAccess(7, 1.0, true);

  EXPECT_TRUE(rig.tracer.records().empty());  // tracer itself stayed off
  ASSERT_EQ(rig.recorder.retained().size(), 1u);
  const FlightRecord& rec = *rig.recorder.retained()[0];
  EXPECT_EQ(rec.stream, 7u);
  EXPECT_TRUE(rec.complete);
  EXPECT_DOUBLE_EQ(rec.latency(), 1.0);
  EXPECT_DOUBLE_EQ(rec.stages.stageSeconds(Stage::kDiskSeek), 0.25);
  EXPECT_EQ(rec.blocks_lost, 1u);
}

TEST(FlightRecorder, RingWrapKeepsExactStageTotals) {
  FlightRecorderConfig config;
  config.ring_events = 4;
  Rig rig(config);
  rig.recorder.beginAccess(1, 0.0);
  for (int i = 0; i < 10; ++i) {
    rig.tracer.span(Stage::kDiskTransfer, i * 0.1, i * 0.1 + 0.05, 1,
                    diskTrack(0), 0);
  }
  rig.recorder.endAccess(1, 1.0, true);

  ASSERT_EQ(rig.recorder.retained().size(), 1u);
  const FlightRecord& rec = *rig.recorder.retained()[0];
  EXPECT_EQ(rec.events.size(), 4u);  // ring holds only the newest 4
  EXPECT_TRUE(rec.wrapped());
  EXPECT_EQ(rec.events_seen, 10u);
  // ...but the aggregates outside the ring never lose time.
  EXPECT_NEAR(rec.stages.stageSeconds(Stage::kDiskTransfer), 0.5, 1e-12);
  EXPECT_EQ(rec.stages.stageSpans(Stage::kDiskTransfer), 10u);
}

TEST(FlightRecorder, RetentionKeepsTheSlowestFirstSeenWinsTies) {
  FlightRecorderConfig config;
  config.keep_slowest = 2;
  Rig rig(config);
  const auto access = [&](std::uint64_t stream, double latency) {
    rig.recorder.beginAccess(stream, 0.0);
    rig.tracer.span(Stage::kClientDecode, 0.0, latency / 2, stream,
                    kClientTrack);
    rig.recorder.endAccess(stream, latency, true);
  };
  access(1, 1.0);
  access(2, 3.0);  // fill phase: slots {1:1.0, 2:3.0}
  access(3, 2.0);  // replaces the fastest (1.0) in place: {3:2.0, 2:3.0}
  access(4, 3.0);  // replaces 2.0: {4:3.0, 2:3.0}
  access(5, 3.0);  // ties the retained 3.0s — first seen wins, dropped

  ASSERT_EQ(rig.recorder.retained().size(), 2u);
  EXPECT_EQ(rig.recorder.retained()[0]->stream, 4u);
  EXPECT_EQ(rig.recorder.retained()[1]->stream, 2u);
  EXPECT_EQ(rig.recorder.accessesBegun(), 5u);
  EXPECT_EQ(rig.recorder.accessesClosed(), 5u);
}

TEST(FlightRecorder, StreamReuseClosesTheOldRecordIncomplete) {
  Rig rig;
  rig.recorder.beginAccess(9, 0.0);
  rig.tracer.span(Stage::kDiskSeek, 0.0, 0.1, 9, diskTrack(1), 1);
  // The scheme reuses the stream id without closing (abort path missed):
  // the recorder folds the old record as incomplete rather than leaking.
  rig.recorder.beginAccess(9, 5.0);
  rig.recorder.endAccess(9, 6.0, true);

  ASSERT_EQ(rig.recorder.retained().size(), 2u);
  EXPECT_FALSE(rig.recorder.retained()[0]->complete);
  EXPECT_TRUE(rig.recorder.retained()[1]->complete);
  EXPECT_EQ(rig.recorder.accessesBegun(), 2u);
  EXPECT_EQ(rig.recorder.accessesClosed(), 2u);
  // lastBreakdown reflects the most recently closed access only.
  const StageBreakdown* last = rig.recorder.lastBreakdown(9);
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->empty());
}

TEST(FlightRecorder, EndAccessIsIdempotent) {
  Rig rig;
  rig.recorder.beginAccess(3, 0.0);
  rig.recorder.endAccess(3, 1.0, true);
  rig.recorder.endAccess(3, 2.0, false);  // no-op: already closed
  rig.recorder.endAccess(4, 1.0, true);   // no-op: never begun
  EXPECT_EQ(rig.recorder.accessesClosed(), 1u);
  ASSERT_EQ(rig.recorder.retained().size(), 1u);
  EXPECT_DOUBLE_EQ(rig.recorder.retained()[0]->latency(), 1.0);
}

TEST(FlightRecorder, FaultLogIsGlobalAndWindowed) {
  Rig rig;
  rig.tracer.instant("fault.fail_stop", 1.0, 0, kFaultTrack, 2);
  rig.tracer.instant("fault.crash", 2.0, 0, kFaultTrack, 3);
  rig.tracer.instant("fault.recover", 3.0, 0, kFaultTrack, 3);
  rig.tracer.instant("not.a.fault", 2.5, 0, kFaultTrack);
  EXPECT_EQ(rig.recorder.faultsLogged(), 3u);
  EXPECT_EQ(rig.recorder.faultsBetween(0.0, 10.0), 3u);
  EXPECT_EQ(rig.recorder.faultsBetween(1.5, 3.5), 2u);
  EXPECT_EQ(rig.recorder.faultsBetween(4.0, 9.0), 0u);
}

TEST(FlightRecorder, StragglerIsTheBusiestDisk) {
  Rig rig;
  rig.recorder.beginAccess(1, 0.0);
  rig.tracer.span(Stage::kDiskTransfer, 0.0, 0.2, 1, diskTrack(4), 4);
  rig.tracer.span(Stage::kDiskTransfer, 0.0, 0.7, 1, diskTrack(9), 9);
  rig.tracer.span(Stage::kDiskSeek, 0.7, 0.8, 1, diskTrack(9), 9);
  // Net transfer is not a disk stage: never charged to a disk.
  rig.tracer.span(Stage::kNetTransfer, 0.0, 5.0, 1, kClientLinkTrack, 4);
  rig.recorder.endAccess(1, 1.0, true);

  const auto [disk, busy] =
      FlightRecorder::stragglerDisk(*rig.recorder.retained()[0]);
  EXPECT_EQ(disk, 9u);
  EXPECT_NEAR(busy, 0.8, 1e-12);
}

TEST(FlightRecorder, AbsorbReoffersInInsertionOrder) {
  FlightRecorderConfig config;
  config.keep_slowest = 2;
  FlightRecorder master(config);
  for (int part = 0; part < 2; ++part) {
    Rig rig(config);
    const double base = part == 0 ? 1.0 : 2.0;
    rig.recorder.beginAccess(1, 0.0);
    rig.recorder.endAccess(1, base, true);
    rig.recorder.beginAccess(2, 0.0);
    rig.recorder.endAccess(2, base + 0.5, true);
    rig.tracer.instant("fault.stall", base, 0, kFaultTrack);
    master.absorb(rig.recorder);
    EXPECT_EQ(rig.recorder.retained().size(), 0u);  // drained
  }
  // Pool was {1.0, 1.5, 2.0, 2.5}; the slowest two survive.
  ASSERT_EQ(master.retained().size(), 2u);
  EXPECT_DOUBLE_EQ(master.retained()[0]->latency(), 2.0);
  EXPECT_DOUBLE_EQ(master.retained()[1]->latency(), 2.5);
  EXPECT_EQ(master.faultsLogged(), 2u);
  EXPECT_EQ(master.accessesClosed(), 4u);
}

TEST(FlightRecorder, ExpandProducesAValidChromeTrace) {
  Rig rig;
  rig.tracer.instant("fault.fail_stop", 0.4, 0, kFaultTrack, 2);
  rig.recorder.beginAccess(1, 0.0);
  rig.tracer.span(Stage::kDiskSeek, 0.0, 0.1, 1, diskTrack(2), 2);
  rig.tracer.span(Stage::kNetTransfer, 0.1, 0.3, 1, kClientLinkTrack);
  rig.tracer.namedSpan("scheme.window", 0.0, 0.5, 1, kClientTrack);
  rig.recorder.endAccess(1, 1.0, true);

  Tracer out(true);
  rig.recorder.expand(*rig.recorder.retained()[0], out);
  // Envelope + 3 ring events + the concurrent fault instant.
  EXPECT_EQ(out.records().size(), 5u);
  // The replayed breakdown matches the recorded aggregates to float
  // precision (ring events store 32-bit relative offsets).
  const StageBreakdown replayed = out.breakdown(1);
  EXPECT_NEAR(replayed.stageSeconds(Stage::kDiskSeek), 0.1, 1e-6);
  EXPECT_NEAR(replayed.stageSeconds(Stage::kNetTransfer), 0.2, 1e-6);
  const std::string json = toChromeTraceJson(out);
  EXPECT_TRUE(validJson(json));
}

// --- determinism guard ----------------------------------------------------

core::ExperimentConfig smallFaultyExperiment() {
  core::ExperimentConfig config;
  config.num_servers = 4;
  config.disks_per_server = 2;
  config.disks_per_access = 8;
  config.access.k = 16;
  config.access.redundancy = 2.0;
  config.trials = 3;
  config.seed = 77;
  config.faults.scripted = {
      {0, fault::FaultKind::kFailStop, 20.0 * kMilliseconds, 0.0, 1.0}};
  return config;
}

TEST(FlightRecorderDeterminism, RecordingNeverChangesTrialResults) {
  const core::ExperimentConfig off = smallFaultyExperiment();
  core::ExperimentConfig on = off;
  on.flight = true;

  for (std::uint32_t t = 0; t < off.trials; ++t) {
    const metrics::AccessMetrics base =
        core::ExperimentRunner::runTrial(off, client::SchemeKind::kRobuStore,
                                         t);
    FlightRecorder recorder;
    const metrics::AccessMetrics recorded = core::ExperimentRunner::runTrial(
        on, client::SchemeKind::kRobuStore, t, /*trace_out=*/nullptr,
        /*telemetry_out=*/nullptr, &recorder);
    // Bitwise identity: the recorder schedules no events, draws no rng.
    EXPECT_EQ(base.latency, recorded.latency) << "trial " << t;
    EXPECT_EQ(base.complete, recorded.complete) << "trial " << t;
    EXPECT_EQ(base.network_bytes, recorded.network_bytes) << "trial " << t;
    EXPECT_EQ(base.blocks_received, recorded.blocks_received) << "trial " << t;
    EXPECT_EQ(base.reissued_requests, recorded.reissued_requests)
        << "trial " << t;
    EXPECT_GT(recorder.eventsSeen(), 0u) << "trial " << t;
    EXPECT_EQ(recorder.accessesClosed(), recorder.accessesBegun());
  }
}

TEST(FlightRecorderDeterminism, CampaignCountersAreBitwiseIdentical) {
  core::MultiClientConfig config;
  config.num_servers = 4;
  config.disks_per_server = 2;
  config.num_clients = 4;
  config.disks_per_access = 4;
  config.access.k = 8;
  config.access.redundancy = 2.0;
  config.accesses_per_client = 3;
  config.seed = 5;

  const core::MultiClientResult off = core::MultiClientExperiment(config).run();
  config.flight = true;
  const core::MultiClientResult on = core::MultiClientExperiment(config).run();

  // Zero engine events, zero rng: every deterministic counter matches.
  EXPECT_EQ(off.events_scheduled, on.events_scheduled);
  EXPECT_EQ(off.events_fired, on.events_fired);
  EXPECT_EQ(off.peak_live_events, on.peak_live_events);
  EXPECT_EQ(off.accesses_completed, on.accesses_completed);
  EXPECT_EQ(off.clients_completed, on.clients_completed);
  EXPECT_EQ(off.makespan, on.makespan);  // bitwise
  EXPECT_EQ(off.accesses.meanLatency(), on.accesses.meanLatency());

  ASSERT_NE(on.flight, nullptr);
  EXPECT_EQ(off.flight, nullptr);
  EXPECT_EQ(on.flight->accessesClosed(), on.flight->accessesBegun());
  EXPECT_GT(on.flight->eventsSeen(), 0u);
  // With flight on, collect() has per-access stage sums: the campaign
  // aggregate carries stage quantiles the plain run does not.
  EXPECT_TRUE(on.accesses.stageQuantilesRecorded());
  EXPECT_FALSE(off.accesses.stageQuantilesRecorded());
}

TEST(FlightRecorderDeterminism, RecorderAgreesWithAFullTracer) {
  using Op = core::ExperimentConfig::Op;
  for (const Op op : {Op::kRead, Op::kWrite, Op::kReadAfterWrite}) {
    core::ExperimentConfig config = smallFaultyExperiment();
    config.op = op;
    config.flight = true;
    Tracer full;
    FlightRecorder recorder;
    // One trial, tracer and recorder side by side on the same sim.
    const metrics::AccessMetrics traced = core::ExperimentRunner::runTrial(
        config, client::SchemeKind::kRobuStore, 0, &full,
        /*telemetry_out=*/nullptr, &recorder);
    FlightRecorder alone;
    const metrics::AccessMetrics recorded = core::ExperimentRunner::runTrial(
        config, client::SchemeKind::kRobuStore, 0, /*trace_out=*/nullptr,
        /*telemetry_out=*/nullptr, &alone);

    // Reads and writes alike open a ring whenever a recorder rides along,
    // so the recorder-only stage sums are bitwise the traced ones.
    const auto name = static_cast<int>(op);
    ASSERT_FALSE(traced.stages.empty()) << "op " << name;
    ASSERT_FALSE(recorded.stages.empty()) << "op " << name;
    for (std::size_t s = 0; s < kNumStages; ++s) {
      EXPECT_EQ(traced.stages.seconds[s], recorded.stages.seconds[s])
          << "op " << name << ": " << stageName(static_cast<Stage>(s));
      EXPECT_EQ(traced.stages.spans[s], recorded.stages.spans[s])
          << "op " << name;
    }
  }
}

}  // namespace
}  // namespace robustore::trace
