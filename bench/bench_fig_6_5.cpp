// Figure 6-5: impact of background workloads — disk utilisation by the
// background stream and the foreground bandwidth that remains, versus the
// background request interval (6..200 ms). Paper: 6 ms -> ~93% utilisation
// and ~2.2 MBps foreground; 200 ms -> ~43 MBps foreground; the
// interval-uniform average is ~35 MBps.

#include <cstdio>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/run_env.hpp"
#include "disk/disk.hpp"
#include "disk/layout.hpp"
#include "sim/engine.hpp"
#include "workload/background.hpp"

namespace {

using namespace robustore;

struct Point {
  double utilization;
  double fg_mbps;
};

Point measure(SimTime interval, std::uint32_t trials) {
  Point acc{0, 0};
  for (std::uint32_t t = 0; t < trials; ++t) {
    sim::Engine engine;
    Rng rng(static_cast<std::uint64_t>(interval * 1e6) + t);
    disk::Disk d(engine, disk::DiskParams{}, rng.fork(1));
    workload::BackgroundConfig cfg;
    cfg.mean_interval = interval;
    workload::BackgroundGenerator gen(engine, d, cfg, rng.fork(2));
    gen.start();

    // Foreground: a sequential large-read stream, one block outstanding
    // at a time (a client paced by deliveries).
    const std::uint32_t blocks = 32;
    const auto layout = disk::FileDiskLayout::generate(
        blocks, kMiB, disk::LayoutConfig{1024, 1.0}, rng);
    std::uint32_t next = 0;
    SimTime done_at = 0;
    std::function<void()> submit = [&] {
      if (next >= blocks) {
        done_at = engine.now();
        gen.stop();
        engine.stop();
        return;
      }
      disk::DiskRequestSpec spec;
      spec.stream = 1;
      spec.extents = layout.blockExtents(next++);
      spec.media_rate = d.mediaRate(layout.zone());
      d.submit(std::move(spec), [&](disk::RequestId) { submit(); });
    };
    submit();
    engine.run();
    engine.run();  // drain the leftover background service

    acc.fg_mbps += toMBps(static_cast<Bytes>(blocks) * kMiB, done_at);
    acc.utilization += d.busyTime(disk::Priority::kBackground) / done_at;
  }
  acc.fg_mbps /= trials;
  acc.utilization /= trials;
  return acc;
}

}  // namespace

int main() {
  const std::uint32_t trials = core::RunEnv::trials(10);
  std::printf("Figure 6-5: background workload impact (%u trials/point)\n\n",
              trials);
  std::printf("%16s %18s %22s\n", "interval (ms)", "bg utilisation",
              "foreground MBps");
  for (const double ms : {6.0, 10.0, 20.0, 40.0, 80.0, 120.0, 200.0}) {
    const Point p = measure(ms * kMilliseconds, trials);
    std::printf("%16.0f %18.2f %22.1f\n", ms, p.utilization, p.fg_mbps);
  }
  std::printf("\nPaper anchors: 6 ms -> ~0.93 utilisation, ~2.2 MBps "
              "foreground; 200 ms -> ~43 MBps foreground.\n");
  return 0;
}
