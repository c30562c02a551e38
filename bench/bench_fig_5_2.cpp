// Figure 5-2: number of graph edges used during LT decoding (mean and
// relative standard deviation) versus C and delta, K=1024. This is the
// XOR workload of a decode. Per §5.2.4, small delta and large C lower the
// CPU (edge) cost while raising the reception overhead — compare against
// Figure 5-1.

#include <cstdio>

#include "coding/lt_codec.hpp"
#include "coding/lt_graph.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/run_env.hpp"

int main() {
  using namespace robustore;
  const std::uint32_t k = 1024;
  const std::uint32_t n = 4 * k;
  const std::uint32_t trials = core::RunEnv::trials(20);
  Rng rng(52);

  std::printf("Figure 5-2: edges used on LT decoding (K=%u, %u orders)\n\n",
              k, trials);
  std::printf("%6s %8s %16s %16s %18s\n", "C", "delta", "mean edges",
              "rel stddev", "edges per block");
  for (const double c : {0.2, 0.5, 1.0, 2.0}) {
    for (const double delta : {0.01, 0.1, 0.5, 0.9}) {
      coding::LtParams params;
      params.c = c;
      params.delta = delta;
      RunningStats stats;
      for (std::uint32_t t = 0; t < trials; ++t) {
        const auto graph = coding::LtGraph::generate(k, n, params, rng);
        coding::LtDecoder decoder(graph);
        const auto order = rng.permutation(n);
        for (const auto s : order) {
          if (decoder.addSymbol(s)) break;
        }
        stats.add(static_cast<double>(decoder.edgesUsed()));
      }
      std::printf("%6.2f %8.2f %16.0f %16.3f %18.2f\n", c, delta,
                  stats.mean(),
                  stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0,
                  stats.mean() / k);
    }
  }
  std::printf("\nExpected shape: small delta and small C increase decoding "
              "work; C and delta trade CPU for reception overhead "
              "(compare Figure 5-1).\n");
  return 0;
}
