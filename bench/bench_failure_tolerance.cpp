// Failure tolerance: read outcome versus the number of fail-stopped disks
// (of the 16 holding the file), per scheme, at 3x redundancy. This
// quantifies the §1.1/§5.3.1 availability argument: RAID-0 dies with the
// first failure, rotated replication dies once some block loses every
// copy, and RobuSTore's symmetric redundancy keeps decoding until fewer
// than ~(1+eps)K blocks survive — at graceful bandwidth cost.

#include <cstdio>

#include "client/scheme.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace robustore;
  const std::uint32_t trials = core::RunEnv::trials(10);

  client::AccessConfig access;
  access.k = 128;  // 128 MB
  access.block_bytes = 1 * kMiB;
  access.redundancy = 3.0;
  access.timeout = 120.0;

  std::printf("Failure tolerance: 128 MB read, 16 disks, 3x redundancy, "
              "random fail-stops (%u trials)\n\n",
              trials);
  std::printf("%8s", "failed");
  for (const auto kind : {client::SchemeKind::kRaid0,
                          client::SchemeKind::kRRaidS,
                          client::SchemeKind::kRobuStore}) {
    std::printf(" | %-24s", client::schemeName(kind));
  }
  std::printf("\n%8s", "");
  for (int s = 0; s < 3; ++s) std::printf(" | %10s %13s", "success", "MBps");
  std::printf("\n");

  for (const std::uint32_t failures : {0u, 1u, 2u, 4u, 6u, 8u, 10u}) {
    std::printf("%8u", failures);
    for (const auto kind : {client::SchemeKind::kRaid0,
                            client::SchemeKind::kRRaidS,
                            client::SchemeKind::kRobuStore}) {
      std::uint32_t successes = 0;
      RunningStats bw;
      for (std::uint32_t t = 0; t < trials; ++t) {
        sim::Engine engine;
        client::ClusterConfig cc;
        cc.num_servers = 4;
        cc.server.disks_per_server = 4;
        client::Cluster cluster(engine, cc, Rng(1000 + t));
        auto scheme = client::makeScheme(kind, cluster, {});
        Rng trial_rng(2000 + t);
        client::LayoutPolicy policy;
        policy.heterogeneous = false;
        std::vector<std::uint32_t> disks(16);
        for (std::uint32_t i = 0; i < 16; ++i) disks[i] = i;
        auto file = scheme->planFile(access, disks, policy, trial_rng);
        // Fail a random subset.
        auto doomed = trial_rng.permutation(16);
        for (std::uint32_t f = 0; f < failures; ++f) {
          cluster.disk(doomed[f]).failStop();
        }
        const auto m = scheme->read(file, access);
        if (m.complete) {
          ++successes;
          bw.add(m.bandwidthMBps());
        }
      }
      std::printf(" | %7u/%-2u %13.1f",
                  successes, trials, bw.count() ? bw.mean() : 0.0);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nExpected: RAID-0 column collapses at 1 failure; RRAID-S "
              "(4 copies) survives small counts and dies once some block "
              "loses all copies; RobuSTore keeps succeeding until fewer "
              "than ~1.5K/4K-per-16-disks blocks remain (~10 failures), "
              "degrading only in bandwidth.\n");
  return 0;
}
