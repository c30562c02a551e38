// AstroGrid-style scenario (§1.1): a telescope archive replicated across
// continents. The client sits 1..100 ms away from the storage sites and
// pulls 128 MB observation files. This example demonstrates the paper's
// latency-tolerance claim: single-round speculative access makes WAN
// distance nearly free, while adaptive multi-round access pays for every
// extra round trip (Figures 6-12..6-14).

#include <cstdio>

#include "core/experiment.hpp"
#include "core/run_env.hpp"

int main() {
  using namespace robustore;
  std::printf("Scenario: 128 MB observation files pulled across a WAN\n"
              "(client-to-archive RTT swept from metro to intercontinental)\n\n");

  std::printf("%-8s %14s %14s %14s %14s\n", "RTT", "RAID-0", "RRAID-S",
              "RRAID-A", "RobuSTore");
  std::printf("%-8s %s\n", "", "(read bandwidth, MBps)");
  for (const double ms : {1.0, 25.0, 100.0}) {
    core::ExperimentConfig cfg;
    cfg.access.k = 128;  // 128 MB
    cfg.round_trip = ms * kMilliseconds;
    cfg.trials = core::RunEnv::trials(6);
    core::ExperimentRunner runner(cfg);
    std::printf("%-8s", (std::to_string(static_cast<int>(ms)) + "ms").c_str());
    for (const auto& result : runner.runAll()) {
      std::printf(" %14.1f", result.aggregate.meanBandwidthMBps());
    }
    std::printf("\n");
  }
  std::printf("\nExpected: RAID-0/RRAID-S/RobuSTore curves are flat in RTT\n"
              "(one request round); RRAID-A drops visibly because its\n"
              "work-stealing needs extra rounds — worst for small files.\n");
  return 0;
}
