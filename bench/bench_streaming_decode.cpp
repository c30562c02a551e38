// Streaming vs batch LT decode on the RobuSTore read path (ROADMAP item
// 3). Both modes run the read data plane — every simulated transfer
// completion synthesizes the block's real bytes — and differ only in
// when decode work happens:
//   * streaming: each arrival feeds the peeling decoder immediately, so
//     decode interleaves with transfer completions;
//   * batch: arrivals are buffered and the whole decode runs after the
//     last needed block lands (the §5.2 decode-tail bottleneck).
// The host profile quantifies the difference: the batch decode shows up
// as one large kDecode burst, while streaming spreads the identical XOR
// work across the read. Simulated metrics are identical across modes
// (and to a data-plane-free read), which the emitted table shows.
//
// The BENCH_streaming_decode.json artifact holds only deterministic
// simulated metrics; the host-profile split is printed to stdout.

#include <cstdio>
#include <memory>
#include <vector>

#include "reporter.hpp"
#include "client/robustore_scheme.hpp"
#include "common/rng.hpp"
#include "core/run_env.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "telemetry/host_profiler.hpp"

namespace {

using namespace robustore;

struct Mode {
  const char* name;
  bool attach;
  bool streaming;
};

struct ModeResult {
  metrics::AccessAggregate agg;
  telemetry::HostProfile profile;
  std::uint32_t verified = 0;
};

}  // namespace

int main() {
  const std::uint32_t trials = core::RunEnv::trials(5);

  client::AccessConfig access;
  access.block_bytes = 256 * kKiB;
  access.k = 256;  // 64 MB of real bytes per trial
  access.redundancy = 2.0;
  const std::uint32_t disks = 16;

  std::printf(
      "Streaming vs batch LT decode on the read data plane "
      "(64 MB, %u disks, 3x redundancy, %u trials)\n\n",
      disks, trials);

  // Shared original bytes: the data plane re-encodes from this on every
  // simulated arrival and verifies the decode against it.
  auto data = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(access.k) * access.block_bytes);
  {
    Rng rng(42);
    for (auto& b : *data) b = static_cast<std::uint8_t>(rng.below(256));
  }

  const Mode modes[] = {{"none", false, false},
                        {"batch", true, false},
                        {"streaming", true, true}};
  ModeResult results[3];
  bench::Reporter reporter("streaming_decode", "data_plane");

  for (std::size_t mi = 0; mi < 3; ++mi) {
    const Mode& mode = modes[mi];
    ModeResult& result = results[mi];
    telemetry::HostProfiler::resetGlobal();
    for (std::uint32_t t = 0; t < trials; ++t) {
      const telemetry::HostProfiler::TrialGuard guard(/*active=*/true);
      sim::Engine engine;
      client::ClusterConfig cc;
      cc.num_servers = 4;
      cc.server.disks_per_server = 4;
      client::Cluster cluster(engine, cc, Rng(900 + t));
      client::RobuStoreScheme scheme(cluster);
      if (mode.attach) {
        scheme.attachDataPlane({.data = data, .streaming = mode.streaming});
      }
      client::LayoutPolicy policy;
      policy.heterogeneous = true;
      Rng trial_rng(800 + t);
      const auto disk_ids = cluster.selectDisks(disks, trial_rng);
      auto file = scheme.planFile(access, disk_ids, policy, trial_rng);
      const auto m = scheme.read(file, access);
      if (!m.complete) continue;
      result.agg.add(m);
      const auto& report = scheme.dataPlaneReport();
      if (report.has_value() && report->verified) ++result.verified;
    }
    result.profile = telemetry::HostProfiler::globalSnapshot();
    reporter.add(mode.name, "RobuSTore", result.agg);
  }

  std::printf("Host profile per mode (decode + XOR are the data plane's "
              "real coding work):\n");
  std::printf("%-12s %10s %10s %10s %12s %10s\n", "data_plane", "wall_s",
              "decode_s", "xor_s", "coding_share", "verified");
  for (std::size_t mi = 0; mi < 3; ++mi) {
    const auto& p = results[mi].profile;
    const double decode = p.scopeSeconds(telemetry::HostScope::kDecode);
    const double xors = p.scopeSeconds(telemetry::HostScope::kXorKernel);
    const double share =
        p.wall_seconds > 0.0 ? (decode + xors) / p.wall_seconds : 0.0;
    std::printf("%-12s %10.3f %10.3f %10.3f %11.1f%% %7u/%u\n",
                modes[mi].name, p.wall_seconds, decode, xors, 100.0 * share,
                results[mi].verified, modes[mi].attach ? trials : 0);
  }

  // Keep the JSON artifact deterministic: the reporter appends the
  // host-profile section only when the global profile is non-empty, and
  // wall-clock seconds are not reproducible.
  telemetry::HostProfiler::resetGlobal();
  reporter.emit();
  return 0;
}
