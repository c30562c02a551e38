// End-to-end codec comparison inside the storage system (§7.3 future
// work, implemented): RobuSTore's speculative access running over LT vs
// Raptor, baseline 1 GB read/write on 64 heterogeneous disks. Raptor's
// sparser inner graph trades a little reception overhead for cheaper
// decoding; inside the storage system, reception overhead is what turns
// into extra I/O, so LT's tighter reception typically wins on bandwidth
// while Raptor wins on client CPU (see bench_ablation_codes).

#include <cstdio>

#include "client/robustore_scheme.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace robustore;
  const std::uint32_t trials = core::RunEnv::trials(10);

  std::printf("RobuSTore end-to-end with different rateless codecs "
              "(1 GB, 64 disks, 3x redundancy, %u trials)\n\n",
              trials);
  std::printf("%-8s %-7s %12s %14s %14s\n", "codec", "op", "MBps",
              "lat stddev", "I/O overhead");

  for (const auto codec : {client::CodecKind::kLt, client::CodecKind::kRaptor}) {
    const char* name = codec == client::CodecKind::kLt ? "LT" : "Raptor";
    for (const bool is_write : {false, true}) {
      RunningStats bw;
      RunningStats lat;
      RunningStats io;
      for (std::uint32_t t = 0; t < trials; ++t) {
        sim::Engine engine;
        client::ClusterConfig cc;
        client::Cluster cluster(engine, cc, Rng(900 + t));
        client::RobuStoreScheme scheme(cluster, coding::LtParams{}, 2, codec);
        client::AccessConfig access;  // 1 GB baseline
        client::LayoutPolicy policy;
        Rng trial_rng(800 + t);
        const auto disks = cluster.selectDisks(64, trial_rng);
        metrics::AccessMetrics m;
        if (is_write) {
          m = scheme.write(access, disks, policy, trial_rng);
        } else {
          auto file = scheme.planFile(access, disks, policy, trial_rng);
          m = scheme.read(file, access);
        }
        if (!m.complete) continue;
        bw.add(m.bandwidthMBps());
        lat.add(m.latency);
        io.add(m.ioOverhead());
      }
      std::printf("%-8s %-7s %12.1f %13.3fs %14.2f\n", name,
                  is_write ? "write" : "read", bw.mean(), lat.stddev(),
                  io.mean());
      std::fflush(stdout);
    }
  }
  return 0;
}
