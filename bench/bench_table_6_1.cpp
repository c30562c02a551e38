// Table 6-1: average disk bandwidth (MBps) versus in-disk layout
// configuration — blocking factor in {8..1024} sectors x probability of
// sequential access in {0, 1}. Paper grid: 0.52..21.4 MBps for p=0 and
// 3.6..53.0 MBps for p=1, average 14.9 MBps.

#include <cstdio>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/run_env.hpp"
#include "disk/disk.hpp"
#include "disk/layout.hpp"
#include "sim/engine.hpp"

namespace {

using namespace robustore;

double measure(std::uint32_t bf, double pseq, std::uint32_t trials) {
  double total_mbps = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    sim::Engine engine;
    Rng rng(bf * 1000 + static_cast<std::uint32_t>(pseq) + t);
    disk::Disk d(engine, disk::DiskParams{}, rng.fork(1));
    const std::uint32_t blocks = 32;
    const auto layout = disk::FileDiskLayout::generate(
        blocks, kMiB, disk::LayoutConfig{bf, pseq}, rng);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      disk::DiskRequestSpec spec;
      spec.stream = 1;
      spec.extents = layout.blockExtents(b);
      spec.media_rate = d.mediaRate(layout.zone());
      d.submit(std::move(spec), nullptr);
    }
    engine.run();
    total_mbps += toMBps(static_cast<Bytes>(blocks) * kMiB, engine.now());
  }
  return total_mbps / trials;
}

}  // namespace

int main() {
  const std::uint32_t trials = core::RunEnv::trials(10);
  std::printf("Table 6-1: average disk bandwidth (MBps) vs in-disk layout "
              "(%u trials per cell)\n\n",
              trials);
  std::printf("%-22s", "Blocking factor");
  for (const std::uint32_t bf : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    std::printf(" %7u", bf);
  }
  std::printf("\n");

  double grid_sum = 0;
  for (const double pseq : {0.0, 1.0}) {
    std::printf("p(seq) = %-13.0f", pseq);
    for (const std::uint32_t bf :
         {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      const double mbps = measure(bf, pseq, trials);
      grid_sum += mbps;
      std::printf(" %7.2f", mbps);
    }
    std::printf("\n");
  }
  std::printf("\nGrid average: %.1f MBps (paper: 14.9)\n", grid_sum / 16);
  std::printf("Paper row p=0: 0.52 0.76 1.3 2.5 4.7 8.3 14.3 21.4\n");
  std::printf("Paper row p=1: 3.6  6.9  9.3 12.7 16.8 29.8 53.0 53.0\n");
  return 0;
}
