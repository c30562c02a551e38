// Ablation: RobuSTore speculative-write pipeline depth. Depth 1 leaves
// each disk idle for a round trip between blocks; deeper pipelines keep
// disks busy but overshoot more blocks at cancellation time (extra I/O
// beyond the redundancy target). The default depth of 2 is the paper-era
// sweet spot for ~ms RTTs.

#include <cstdio>
#include <vector>

#include "client/robustore_scheme.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace robustore;
  const std::uint32_t trials = core::RunEnv::trials(8);

  std::printf("Ablation: speculative-write pipeline depth (64 disks, 1 GB, "
              "3x redundancy, 10 ms RTT)\n\n");
  std::printf("%8s %16s %18s %20s\n", "depth", "write MBps", "I/O overhead",
              "in-flight overshoot");

  for (const std::uint32_t depth : {1u, 2u, 4u, 8u, 16u}) {
    RunningStats bw;
    RunningStats io;
    RunningStats overshoot;
    for (std::uint32_t t = 0; t < trials; ++t) {
      sim::Engine engine;
      client::ClusterConfig cc;
      cc.server.round_trip = 10 * kMilliseconds;
      client::Cluster cluster(engine, cc, Rng(400 + t));
      client::RobuStoreScheme scheme(cluster, coding::LtParams{}, depth);
      client::AccessConfig access;  // 1 GB, 3x
      Rng trial_rng(500 + t);
      const auto disks = cluster.selectDisks(64, trial_rng);
      client::LayoutPolicy policy;
      const auto m = scheme.write(access, disks, policy, trial_rng);
      if (!m.complete) continue;
      bw.add(m.bandwidthMBps());
      io.add(m.ioOverhead());
      // Bytes beyond the redundancy target: blocks that were in flight or
      // in service when the writer cancelled.
      overshoot.add(m.ioOverhead() - access.redundancy);
    }
    std::printf("%8u %16.1f %18.2f %20.2f\n", depth, bw.mean(), io.mean(),
                overshoot.mean());
  }
  std::printf("\nExpected: depth 1 loses bandwidth to per-block round "
              "trips; large depths add committed-but-unneeded blocks "
              "(I/O overhead above the 3.0 redundancy line).\n");
  return 0;
}
