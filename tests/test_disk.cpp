#include "disk/disk.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "disk/layout.hpp"
#include "sim/engine.hpp"

namespace robustore::disk {
namespace {

DiskRequestSpec specOf(const FileDiskLayout& layout, std::uint32_t block,
                       StreamId stream, const Disk& d,
                       Priority pri = Priority::kForeground) {
  DiskRequestSpec spec;
  spec.stream = stream;
  spec.priority = pri;
  spec.extents = layout.blockExtents(block);
  spec.media_rate = d.mediaRate(layout.zone());
  return spec;
}

class DiskFixture : public ::testing::Test {
 protected:
  sim::Engine engine;
  DiskParams params;
  Rng rng{1};
};

TEST_F(DiskFixture, ServesAndCompletes) {
  Disk d(engine, params, rng.fork(1));
  const auto layout =
      FileDiskLayout::generate(1, kMiB, LayoutConfig{128, 0.0}, rng);
  bool done = false;
  d.submit(specOf(layout, 0, 1, d), [&](RequestId) { done = true; });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_GT(engine.now(), 0.0);
  EXPECT_EQ(d.bytesServed(Priority::kForeground), kMiB);
}

TEST_F(DiskFixture, FcfsWithinPriorityClass) {
  Disk d(engine, params, rng.fork(2));
  const auto layout =
      FileDiskLayout::generate(4, 256 * kKiB, LayoutConfig{128, 0.0}, rng);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    d.submit(specOf(layout, i, 1, d), [&order, i](RequestId) {
      order.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(DiskFixture, BackgroundPreemptsQueuedForeground) {
  Disk d(engine, params, rng.fork(3));
  const auto layout =
      FileDiskLayout::generate(4, 256 * kKiB, LayoutConfig{128, 0.0}, rng);
  std::vector<char> order;
  // Two foreground requests queue; a background request submitted before
  // the first completes must be served before the second foreground one.
  d.submit(specOf(layout, 0, 1, d), [&](RequestId) { order.push_back('f'); });
  d.submit(specOf(layout, 1, 1, d), [&](RequestId) { order.push_back('F'); });
  d.submit(specOf(layout, 2, 2, d, Priority::kBackground),
           [&](RequestId) { order.push_back('b'); });
  engine.run();
  EXPECT_EQ(order, (std::vector<char>{'f', 'b', 'F'}));
}

TEST_F(DiskFixture, SequentialLayoutIsMuchFasterThanScattered) {
  // Table 6-1's basic shape: p_seq=1 beats p_seq=0 by a wide margin.
  double times[2];
  for (int variant = 0; variant < 2; ++variant) {
    sim::Engine e;
    Rng r(42);
    Disk d(e, params, r.fork(7));
    const auto layout = FileDiskLayout::generate(
        8, kMiB, LayoutConfig{64, variant == 0 ? 0.0 : 1.0}, r);
    int remaining = 8;
    for (int b = 0; b < 8; ++b) {
      d.submit(specOf(layout, b, 1, d), [&](RequestId) { --remaining; });
    }
    e.run();
    EXPECT_EQ(remaining, 0);
    times[variant] = e.now();
  }
  EXPECT_GT(times[0], 4.0 * times[1]);
}

TEST_F(DiskFixture, InterleavingAnotherStreamBreaksSequentiality) {
  // A sequential stream interrupted by another stream must be slower than
  // the same stream uninterrupted (§2.1.1).
  const auto run = [&](bool interleave) {
    sim::Engine e;
    Rng r(77);
    Disk d(e, params, r.fork(9));
    const auto fg = FileDiskLayout::generate(8, kMiB, LayoutConfig{1024, 1.0}, r);
    const auto bg = FileDiskLayout::generate(8, 4 * kKiB, LayoutConfig{8, 0.0}, r);
    SimTime fg_busy_before = 0;
    for (int b = 0; b < 8; ++b) {
      d.submit(specOf(fg, b, 1, d), nullptr);
      if (interleave) d.submit(specOf(bg, b, 2, d), nullptr);
    }
    e.run();
    fg_busy_before = d.busyTime(Priority::kForeground);
    return fg_busy_before;
  };
  // Foreground service time alone grows when interleaved because every
  // block has to re-position.
  EXPECT_GT(run(true), 1.2 * run(false));
}

TEST_F(DiskFixture, CancelQueuedRequest) {
  Disk d(engine, params, rng.fork(4));
  const auto layout =
      FileDiskLayout::generate(3, 256 * kKiB, LayoutConfig{128, 0.0}, rng);
  bool second_done = false;
  d.submit(specOf(layout, 0, 1, d), nullptr);
  const RequestId id =
      d.submit(specOf(layout, 1, 1, d), [&](RequestId) { second_done = true; });
  EXPECT_TRUE(d.cancel(id));
  EXPECT_FALSE(d.cancel(id));  // already cancelled
  engine.run();
  EXPECT_FALSE(second_done);
  EXPECT_EQ(d.bytesServed(Priority::kForeground), 256 * kKiB);
}

TEST_F(DiskFixture, CannotCancelInServiceRequest) {
  Disk d(engine, params, rng.fork(5));
  const auto layout =
      FileDiskLayout::generate(1, 256 * kKiB, LayoutConfig{128, 0.0}, rng);
  const RequestId id = d.submit(specOf(layout, 0, 1, d), nullptr);
  EXPECT_FALSE(d.cancel(id));  // started immediately
  engine.run();
}

TEST_F(DiskFixture, CancelStreamLeavesOtherStreams) {
  Disk d(engine, params, rng.fork(6));
  const auto layout =
      FileDiskLayout::generate(6, 64 * kKiB, LayoutConfig{128, 0.0}, rng);
  int done1 = 0;
  int done2 = 0;
  d.submit(specOf(layout, 0, 1, d), [&](RequestId) { ++done1; });  // in service
  for (int b = 1; b < 4; ++b) {
    d.submit(specOf(layout, b, 1, d), [&](RequestId) { ++done1; });
  }
  for (int b = 4; b < 6; ++b) {
    d.submit(specOf(layout, b, 2, d), [&](RequestId) { ++done2; });
  }
  EXPECT_EQ(d.cancelStream(1), 3u);  // queued ones only
  engine.run();
  EXPECT_EQ(done1, 1);  // the in-service request completed
  EXPECT_EQ(done2, 2);
}

TEST_F(DiskFixture, InServiceBytesReportsCurrentStream) {
  Disk d(engine, params, rng.fork(8));
  const auto layout =
      FileDiskLayout::generate(1, 128 * kKiB, LayoutConfig{128, 0.0}, rng);
  EXPECT_EQ(d.inServiceBytes(1), 0u);
  d.submit(specOf(layout, 0, 1, d), nullptr);
  EXPECT_EQ(d.inServiceBytes(1), 128 * kKiB);
  EXPECT_EQ(d.inServiceBytes(2), 0u);
  engine.run();
  EXPECT_EQ(d.inServiceBytes(1), 0u);
}

TEST_F(DiskFixture, BusyTimeAccumulatesPerClass) {
  Disk d(engine, params, rng.fork(10));
  const auto layout =
      FileDiskLayout::generate(2, 64 * kKiB, LayoutConfig{128, 0.0}, rng);
  d.submit(specOf(layout, 0, 1, d), nullptr);
  d.submit(specOf(layout, 1, 2, d, Priority::kBackground), nullptr);
  engine.run();
  EXPECT_GT(d.busyTime(Priority::kForeground), 0.0);
  EXPECT_GT(d.busyTime(Priority::kBackground), 0.0);
  EXPECT_NEAR(d.busyTime(Priority::kForeground) +
                  d.busyTime(Priority::kBackground),
              engine.now(), 1e-9);
}

TEST_F(DiskFixture, ResetClearsBookkeeping) {
  Disk d(engine, params, rng.fork(11));
  const auto layout =
      FileDiskLayout::generate(1, 64 * kKiB, LayoutConfig{128, 0.0}, rng);
  d.submit(specOf(layout, 0, 1, d), nullptr);
  engine.run();
  EXPECT_NO_FATAL_FAILURE(d.reset());
  // The disk still works after a reset.
  bool done = false;
  d.submit(specOf(layout, 0, 1, d), [&](RequestId) { done = true; });
  engine.run();
  EXPECT_TRUE(done);
}

TEST_F(DiskFixture, MediaRateSpansZoneRange) {
  Disk d(engine, params, rng.fork(12));
  EXPECT_DOUBLE_EQ(d.mediaRate(0.0), params.media_rate_min);
  EXPECT_DOUBLE_EQ(d.mediaRate(1.0), params.media_rate_max);
  EXPECT_GT(d.mediaRate(0.6), d.mediaRate(0.4));
}

// Coarse Table 6-1 calibration: the simulated bandwidth grid must keep the
// paper's ordering and rough magnitudes (~0.5 MBps worst, tens of MBps
// best, a ~100x spread).
TEST(DiskCalibration, BandwidthGridShape) {
  const auto measure = [](std::uint32_t bf, double pseq) {
    sim::Engine engine;
    Rng rng(bf + static_cast<std::uint32_t>(pseq));
    DiskParams params;
    Disk d(engine, params, rng.fork(1));
    const Bytes total = 32 * kMiB;
    const auto layout = FileDiskLayout::generate(
        32, kMiB, LayoutConfig{bf, pseq}, rng);
    for (std::uint32_t b = 0; b < 32; ++b) {
      DiskRequestSpec spec;
      spec.stream = 1;
      spec.extents = layout.blockExtents(b);
      spec.media_rate = d.mediaRate(0.5);  // mid zone for determinism
      d.submit(std::move(spec), nullptr);
    }
    engine.run();
    return toMBps(total, engine.now());
  };

  const double slow_scattered = measure(8, 0.0);
  const double fast_scattered = measure(1024, 0.0);
  const double slow_sequential = measure(8, 1.0);
  const double fast_sequential = measure(1024, 1.0);

  EXPECT_GT(slow_scattered, 0.2);
  EXPECT_LT(slow_scattered, 1.2);        // paper: 0.52 MBps
  EXPECT_GT(fast_scattered, 10.0);       // paper: 21.4
  EXPECT_LT(fast_scattered, 40.0);
  EXPECT_GT(slow_sequential, 1.5);       // paper: 3.6
  EXPECT_LT(slow_sequential, 8.0);
  EXPECT_GT(fast_sequential, 30.0);      // paper: 53.0
  EXPECT_LT(fast_sequential, 70.0);
  // Ordering and overall spread.
  EXPECT_GT(fast_sequential, fast_scattered);
  EXPECT_GT(slow_sequential, slow_scattered);
  EXPECT_GT(fast_sequential / slow_scattered, 30.0);
}

// --- Request edits: reposition_first / max_bytes ----------------------------

/// The edit the storage server used to make to a copy of a block's runs
/// before submitting it, kept here as the reference the disk's
/// reposition_first/max_bytes must reproduce bit for bit.
std::vector<Extent> editedRuns(std::span<const Extent> runs,
                               bool reposition_first, Bytes max_bytes) {
  std::vector<Extent> out(runs.begin(), runs.end());
  if (reposition_first) out.front().continues_previous = false;
  if (max_bytes != 0) {
    Bytes remaining = max_bytes;
    std::size_t keep = 0;
    for (auto& e : out) {
      if (remaining == 0) break;
      if (e.bytes > remaining) e.bytes = remaining;
      remaining -= e.bytes;
      ++keep;
    }
    out.resize(keep);
  }
  return out;
}

struct BlockRead {
  std::uint32_t block;
  bool reposition_first;
  Bytes max_bytes;
};

struct Served {
  std::vector<SimTime> done;
  Bytes bytes = 0;
};

/// Serves `reads` in order on one stream of a fresh disk: through the
/// spec's edit fields, or (`edited`) through runs edited beforehand.
Served serveReads(const FileDiskLayout& layout,
                  const std::vector<BlockRead>& reads, bool edited) {
  sim::Engine engine;
  Disk d(engine, DiskParams{}, Rng{42});
  Served out;
  std::vector<std::vector<Extent>> runs;
  runs.reserve(reads.size());
  for (const BlockRead& r : reads) {
    DiskRequestSpec spec;
    spec.stream = 7;
    spec.media_rate = d.mediaRate(layout.zone());
    if (edited) {
      runs.push_back(editedRuns(layout.blockExtents(r.block),
                                r.reposition_first, r.max_bytes));
      spec.extents = runs.back();
    } else {
      spec.extents = layout.blockExtents(r.block);
      spec.reposition_first = r.reposition_first;
      spec.max_bytes = r.max_bytes;
    }
    d.submit(spec, [&](RequestId) { out.done.push_back(engine.now()); });
  }
  engine.run();
  out.bytes = d.bytesServed(Priority::kForeground);
  return out;
}

TEST(DiskRequestEdits, ForcedRepositionMatchesTheEditedRuns) {
  // RRAID-A's pattern: every run continues its predecessor on the
  // platter, but the reader skips stored blocks, so the first run of a
  // block after a gap must re-position.
  Rng rng{3};
  const auto layout =
      FileDiskLayout::generate(8, 256 * kKiB, LayoutConfig{128, 1.0}, rng);
  ASSERT_TRUE(layout.blockExtents(2).front().continues_previous);
  const std::vector<BlockRead> reads = {
      {0, false, 0}, {2, true, 0}, {3, false, 0}, {5, true, 0}, {7, true, 0}};
  const Served flags = serveReads(layout, reads, /*edited=*/false);
  const Served reference = serveReads(layout, reads, /*edited=*/true);
  ASSERT_EQ(flags.done.size(), reads.size());
  EXPECT_EQ(flags.done, reference.done);  // bit-identical timestamps
  EXPECT_EQ(flags.bytes, reference.bytes);
  // The flag matters: unforced, the same reads finish at other times.
  std::vector<BlockRead> unforced = reads;
  for (auto& r : unforced) r.reposition_first = false;
  EXPECT_NE(serveReads(layout, unforced, false).done, flags.done);
}

TEST(DiskRequestEdits, PartialReadMatchesTheClippedRuns) {
  // A regenerating-repair helper: random access (forced re-position) to
  // the leading bytes of a block — mid-run, on a run boundary, and the
  // whole block.
  Rng rng{4};
  const auto layout =
      FileDiskLayout::generate(6, 256 * kKiB, LayoutConfig{128, 0.5}, rng);
  const std::vector<BlockRead> reads = {{1, true, 100 * kKiB},
                                        {2, true, 64 * kKiB},
                                        {3, false, 200 * kKiB},
                                        {4, true, 0},
                                        {5, true, 1 * kKiB}};
  const Served flags = serveReads(layout, reads, /*edited=*/false);
  const Served reference = serveReads(layout, reads, /*edited=*/true);
  ASSERT_EQ(flags.done.size(), reads.size());
  EXPECT_EQ(flags.done, reference.done);
  EXPECT_EQ(flags.bytes,
            (100 + 64 + 200 + 256 + 1) * kKiB);  // clipped, not whole
  EXPECT_EQ(flags.bytes, reference.bytes);
}

TEST(DiskRequestEdits, SubmitCopiesTheRunsItIsGiven) {
  // The spec is a view: the disk keeps its own copy, so the caller's
  // storage may change (a layout growing under a speculative writer)
  // while the request is queued.
  sim::Engine engine;
  Disk d(engine, DiskParams{}, Rng{5});
  std::vector<Extent> runs = {{64 * kKiB, false}, {64 * kKiB, false}};
  DiskRequestSpec spec;
  spec.stream = 1;
  spec.extents = runs;
  spec.media_rate = d.mediaRate(0.5);
  d.submit(spec, nullptr);  // in service
  d.submit(spec, nullptr);  // queued
  runs.assign(16, Extent{kMiB, true});
  engine.run();
  EXPECT_EQ(d.bytesServed(Priority::kForeground), 4 * 64 * kKiB);
}

}  // namespace
}  // namespace robustore::disk
