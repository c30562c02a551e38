// Update-access cost (§4.3.4): how many coded blocks one original-block
// update dirties, across coding configurations. Paper claim: with K=1024
// and N=4096 the average input degree is ~20, so an update rewrites about
// 0.5% of the coded data.

#include <cstdio>

#include "coding/lt_graph.hpp"
#include "coding/update.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"

int main() {
  using namespace robustore;
  const std::uint32_t trials = core::RunEnv::trials(5);
  Rng rng(73);

  std::printf("Update access cost (§4.3.4)\n\n");
  std::printf("%8s %8s %16s %14s %18s\n", "K", "N", "mean affected",
              "max affected", "fraction of data");
  for (const auto& [k, n] : {std::pair{128u, 512u}, std::pair{512u, 2048u},
                            std::pair{1024u, 4096u}, std::pair{1024u, 8192u}}) {
    RunningStats mean_affected;
    RunningStats max_affected;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const auto graph =
          coding::LtGraph::generate(k, n, coding::LtParams{}, rng);
      const coding::LtUpdater updater(graph);
      mean_affected.add(updater.meanAffected());
      max_affected.add(static_cast<double>(updater.maxAffected()));
    }
    std::printf("%8u %8u %16.1f %14.0f %17.2f%%\n", k, n,
                mean_affected.mean(), max_affected.mean(),
                100.0 * mean_affected.mean() / n);
  }
  std::printf("\nPaper anchor: K=1024, N=4096 -> ~20 blocks, ~0.5%% of the "
              "encoded data.\n");
  return 0;
}
