// Figure 5-1: LT reception overhead (mean and relative standard
// deviation) versus the robust-soliton parameters C and delta, for
// K in {128, 512, 1024}. Paper: overhead in the 0.3-0.5 band is easy to
// hit; e.g. K=1024, C=1, delta=0.1 gives ~0.5 with rel-stddev ~5%.

#include <cstdio>

#include "coding/lt_codec.hpp"
#include "coding/lt_graph.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"

namespace {

using namespace robustore;

/// Mean/σ of the reception overhead over `trials` random arrival orders.
RunningStats receptionOverhead(std::uint32_t k, double c, double delta,
                               std::uint32_t trials, Rng& rng) {
  RunningStats stats;
  coding::LtParams params;
  params.c = c;
  params.delta = delta;
  const std::uint32_t n = 4 * k;  // plenty of symbols to draw from
  for (std::uint32_t t = 0; t < trials; ++t) {
    const auto graph = coding::LtGraph::generate(k, n, params, rng);
    coding::LtDecoder decoder(graph);
    const auto order = rng.permutation(n);
    for (const auto s : order) {
      if (decoder.addSymbol(s)) break;
    }
    if (!decoder.complete()) continue;  // cannot happen: graphs are repaired
    stats.add(static_cast<double>(decoder.symbolsUsed()) / k - 1.0);
  }
  return stats;
}

}  // namespace

int main() {
  const std::uint32_t trials =
      core::RunEnv::trials(20);
  Rng rng(51);
  std::printf("Figure 5-1: Reception overhead of LT codes "
              "(%u arrival orders per point)\n\n",
              trials);
  for (const std::uint32_t k : {128u, 512u, 1024u}) {
    std::printf("K = %u\n", k);
    std::printf("%6s %8s %18s %18s\n", "C", "delta", "mean overhead",
                "rel stddev");
    for (const double c : {0.2, 0.5, 1.0, 2.0}) {
      for (const double delta : {0.01, 0.1, 0.5, 0.9}) {
        const auto stats = receptionOverhead(k, c, delta, trials, rng);
        const double rel =
            stats.mean() > -1.0
                ? stats.stddev() / (1.0 + stats.mean())
                : 0.0;
        std::printf("%6.2f %8.2f %18.3f %18.3f\n", c, delta, stats.mean(),
                    rel);
      }
    }
    std::printf("\n");
  }
  std::printf("Expected shape: overhead lands in the 0.3-0.5 band for "
              "well-chosen (C, delta); small delta / large C trade higher "
              "reception overhead for cheaper decodes (§5.2.4).\n");
  return 0;
}
