// Statistical properties of the disk model's service process — the
// quantities the §6.2.5 calibration and the robustness experiments lean
// on. Each test measures a distribution over many requests and checks
// first-order moments against the DiskParams contract.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "disk/disk.hpp"
#include "disk/layout.hpp"
#include "sim/engine.hpp"

namespace robustore::disk {
namespace {

/// Serves `count` one-extent positioned requests and returns per-request
/// service-time statistics.
RunningStats positionedServiceTimes(const DiskParams& params, Bytes bytes,
                                    std::uint32_t count, std::uint64_t seed) {
  sim::Engine engine;
  Rng rng(seed);
  Disk d(engine, params, rng.fork(1));
  RunningStats stats;
  SimTime last = 0;
  std::function<void()> submit = [&] {
    if (stats.count() >= count) return;
    const Extent run{bytes, false};
    DiskRequestSpec spec;
    spec.stream = 1;
    spec.extents = std::span(&run, 1);
    spec.media_rate = d.mediaRate(0.5);
    d.submit(std::move(spec), [&](RequestId) {
      stats.add(engine.now() - last);
      last = engine.now();
      submit();
    });
  };
  submit();
  engine.run();
  return stats;
}

TEST(DiskStatistics, PositionedServiceMeanMatchesComponents) {
  DiskParams params;
  const Bytes bytes = 4 * kKiB;
  const auto stats = positionedServiceTimes(params, bytes, 2000, 1);
  // command + E[seek] + E[rotation] + transfer + track share.
  const double expected =
      params.command_overhead + (params.seek_min + params.seek_max) / 2 +
      params.revolution() / 2 +
      static_cast<double>(bytes) / ((params.media_rate_min +
                                     params.media_rate_max) / 2) +
      static_cast<double>(bytes) / params.track_bytes * params.track_switch;
  EXPECT_NEAR(stats.mean(), expected, 0.06 * expected);
}

TEST(DiskStatistics, ServiceTimesBoundedBelowByDeterministicParts) {
  DiskParams params;
  const Bytes bytes = 64 * kKiB;
  const auto stats = positionedServiceTimes(params, bytes, 500, 2);
  const double floor = params.command_overhead + params.seek_min +
                       static_cast<double>(bytes) / params.media_rate_max;
  EXPECT_GE(stats.min(), floor);
}

TEST(DiskStatistics, VarianceComesFromPositioning) {
  DiskParams params;
  // Tiny transfers: variance should be dominated by seek+rotation spread.
  const auto stats = positionedServiceTimes(params, 512, 2000, 3);
  const double seek_var =
      (params.seek_max - params.seek_min) * (params.seek_max - params.seek_min) /
      12.0;
  const double rot_var = params.revolution() * params.revolution() / 12.0;
  EXPECT_NEAR(stats.variance(), seek_var + rot_var,
              0.15 * (seek_var + rot_var));
}

TEST(DiskStatistics, SequentialStreamApproachesMediaRate) {
  sim::Engine engine;
  DiskParams params;
  params.seq_miss_prob = 0.0;  // isolate the streaming path
  params.command_overhead = 0.1 * kMilliseconds;
  Rng rng(4);
  Disk d(engine, params, rng.fork(1));
  const Bytes block = kMiB;
  const std::uint32_t blocks = 64;
  const auto layout =
      FileDiskLayout::generate(blocks, block, LayoutConfig{1024, 1.0}, rng);
  const double rate = d.mediaRate(layout.zone());
  for (std::uint32_t b = 0; b < blocks; ++b) {
    DiskRequestSpec spec;
    spec.stream = 1;
    spec.extents = layout.blockExtents(b);
    spec.media_rate = rate;
    d.submit(std::move(spec), nullptr);
  }
  engine.run();
  const double achieved =
      static_cast<double>(blocks) * block / engine.now();
  // Transfer dominates: within 25% of raw media rate.
  EXPECT_GT(achieved, 0.75 * rate);
  EXPECT_LE(achieved, rate);
}

TEST(DiskStatistics, HundredFoldSpreadAcrossTheLayoutGrid) {
  // §6.2.5: the layout grid spans roughly two orders of magnitude.
  const auto throughput = [](std::uint32_t bf, double pseq) {
    sim::Engine engine;
    Rng rng(bf + 17);
    Disk d(engine, DiskParams{}, rng.fork(1));
    const auto layout =
        FileDiskLayout::generate(16, kMiB, LayoutConfig{bf, pseq}, rng);
    for (std::uint32_t b = 0; b < 16; ++b) {
      DiskRequestSpec spec;
      spec.stream = 1;
      spec.extents = layout.blockExtents(b);
      spec.media_rate = d.mediaRate(0.5);
      d.submit(std::move(spec), nullptr);
    }
    engine.run();
    return 16.0 * kMiB / engine.now();
  };
  const double worst = throughput(8, 0.0);
  const double best = throughput(1024, 1.0);
  EXPECT_GT(best / worst, 50.0);
  EXPECT_LT(best / worst, 300.0);
}

TEST(DiskStatistics, FairShareInterleavesStreams) {
  // Two foreground streams submitting equal work must finish close
  // together under the round-robin discipline (neither starves).
  sim::Engine engine;
  Rng rng(5);
  Disk d(engine, DiskParams{}, rng.fork(1));
  const auto layout =
      FileDiskLayout::generate(32, 256 * kKiB, LayoutConfig{256, 0.0}, rng);
  SimTime done[2] = {0, 0};
  for (std::uint32_t b = 0; b < 32; ++b) {
    DiskRequestSpec spec;
    spec.stream = 1 + (b % 2);
    spec.extents = layout.blockExtents(b);
    spec.media_rate = d.mediaRate(0.5);
    const std::size_t who = b % 2;
    d.submit(std::move(spec), [&, who](RequestId) {
      done[who] = engine.now();
    });
  }
  engine.run();
  const SimTime gap = std::abs(done[0] - done[1]);
  EXPECT_LT(gap, 0.1 * engine.now());
}

}  // namespace
}  // namespace robustore::disk
