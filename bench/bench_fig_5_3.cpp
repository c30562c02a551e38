// Figure 5-3: actual LT decoding bandwidth (wall clock, data plane) and
// reception overhead, K=1024. Paper (2.8 GHz Opteron): e.g. C=1.0,
// delta=0.1 -> 394 MBps at ~50% overhead; C=2.0, delta=0.01 -> 550 MBps
// at ~136% overhead. Absolute MBps is host-dependent; the trade-off
// between the two metrics is the claim.

#include <chrono>
#include <cstdio>
#include <vector>

#include "coding/lt_codec.hpp"
#include "coding/lt_graph.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/run_env.hpp"

int main() {
  using namespace robustore;
  using Clock = std::chrono::steady_clock;
  const std::uint32_t k = 1024;
  const std::uint32_t n = 4 * k;
  // 64 KiB blocks keep the working set laptop-friendly (64 MB of data);
  // per-byte decode cost is what the figure measures.
  const Bytes block = 64 * kKiB;
  const std::uint32_t reps = core::RunEnv::trials(3);

  Rng rng(53);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(k) * block);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));

  std::printf("Figure 5-3: LT decoding bandwidth and reception overhead "
              "(K=%u, %llu KiB blocks)\n\n",
              k, static_cast<unsigned long long>(block / kKiB));
  std::printf("%6s %8s %18s %20s\n", "C", "delta", "decode MBps",
              "reception overhead");

  for (const double c : {0.5, 1.0, 2.0}) {
    for (const double delta : {0.01, 0.1, 0.5}) {
      coding::LtParams params;
      params.c = c;
      params.delta = delta;
      double best_mbps = 0;
      double overhead = 0;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        const auto graph = coding::LtGraph::generate(k, n, params, rng);
        const coding::LtEncoder encoder(graph, data, block);
        const auto coded = encoder.encodeAll();
        const auto order = rng.permutation(n);

        coding::LtDecoder decoder(graph, block);
        const auto start = Clock::now();
        std::uint32_t used = 0;
        for (const auto s : order) {
          ++used;
          if (decoder.addSymbol(
                  s, std::span(coded).subspan(
                         static_cast<std::size_t>(s) * block, block))) {
            break;
          }
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (!decoder.complete() || decoder.takeData() != data) {
          std::printf("DECODE FAILURE at C=%.2f delta=%.2f\n", c, delta);
          return 1;
        }
        best_mbps = std::max(
            best_mbps, toMBps(static_cast<Bytes>(k) * block, seconds));
        overhead = static_cast<double>(used) / k - 1.0;
      }
      std::printf("%6.2f %8.2f %18.1f %20.2f\n", c, delta, best_mbps,
                  overhead);
    }
  }
  std::printf("\nExpected shape: cheap-XOR parameter choices (large C, "
              "large delta) decode fastest but receive more blocks; the "
              "decoder should sustain hundreds of MBps either way "
              "(§5.2.4).\n");
  return 0;
}
