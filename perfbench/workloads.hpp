// The benchmark's three closed-loop workloads. Each one runs operations
// one at a time through the simulator's public entry points; operation i
// is a pure function of (seed, i), so any prefix of a run replays
// bit-identically and its digest can be pinned.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "client/scheme.hpp"
#include "measure.hpp"
#include "spans.hpp"
#include "telemetry/host_profiler.hpp"

namespace perfbench {

enum class WorkloadKind : std::uint8_t { kPaperMix, kCampaign, kDataplane };

[[nodiscard]] std::optional<WorkloadKind> parseWorkload(std::string_view name);
[[nodiscard]] const char* workloadName(WorkloadKind kind);

/// Everything observed around one operation. The workload fills the
/// simulated results and its own call timings; the main loop adds
/// the process and profiler deltas around the call.
struct OpRecord {
  /// Slot of the operation in its workload's round (scheme x op kind).
  std::uint32_t cell = 0;
  robustore::client::SchemeKind scheme = robustore::client::SchemeKind::kRaid0;
  bool write = false;

  /// Simulated accesses the operation attempted, and how many of them
  /// failed a check (incomplete, unverified, or implausible result).
  std::uint64_t accesses = 0;
  std::uint64_t failed = 0;
  /// Host seconds inside the timed public calls.
  double wall_s = 0.0;
  /// Useful bytes of accesses that passed every check; on the data plane
  /// these bytes were decoded and compared against the source.
  double verified_bytes = 0.0;
  /// Digest of every simulated result of the operation.
  std::uint64_t digest = 0;

  // Simulated work (deterministic). Engine counters are only visible
  // where the benchmark owns the engine or the entry point reports them.
  bool has_engine_stats = false;
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t peak_live_events = 0;
  double blocks_received = 0.0;
  double blocks_original = 0.0;
  double network_bytes = 0.0;
  double data_bytes = 0.0;
  double reissues = 0.0;
  std::uint64_t xor_ops = 0;
  std::uint64_t symbols_fed = 0;
  std::uint64_t block_bytes = 0;

  // Process counters around the operation (filled by the main loop).
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t minor_faults = 0;
  double alloc_s = 0.0;
  /// HostProfiler profile of the operation (traced pass only).
  robustore::telemetry::HostProfile profile;
};

/// Direct LtEncoder / LtDecoder throughput on a workload's own bytes and
/// graph (traced data-plane runs only).
struct CodecRates {
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
  bool verified = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations per round: the round-robin period over schemes and op
  /// kinds. Timing statistics are per cell (op index modulo cells()).
  [[nodiscard]] virtual std::uint32_t cells() const = 0;
  /// Length of the checked prefix: the operations every run performs,
  /// whose digest is pinned and whose counters must repeat exactly.
  [[nodiscard]] virtual std::uint32_t checkOps() const = 0;
  /// The SpeedProbe whose host time the workload's operations follow.
  [[nodiscard]] virtual ProbeKind speedProbe() const = 0;

  /// Builds the standing state and warms caches and lazy set-up with one
  /// untimed operation per cell. Repeatable; main times it. Each `repeat`
  /// warms up on operations of its own, so the median over repeats is
  /// not the cost of one fixed, seed-dependent set of inputs.
  virtual void setup(std::uint32_t repeat) = 0;

  /// Runs operation `op`. `spans` (traced runs) receives one span per
  /// public call into the simulator.
  [[nodiscard]] virtual OpRecord run(std::uint64_t op, SpanRecorder* spans) = 0;

  /// Direct codec throughput; nullopt for workloads without real bytes.
  [[nodiscard]] virtual std::optional<CodecRates> codecRates(
      SpanRecorder* spans) {
    (void)spans;
    return std::nullopt;
  }
};

[[nodiscard]] std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                                     std::uint64_t seed);

}  // namespace perfbench
