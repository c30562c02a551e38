// Benchmark-side arithmetic: order statistics, the tail-percentile rule,
// the result digest, and process counters read from outside the library.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile q in (0, 1] — the value at rank ceil(q * n) —
/// but only when at least `min_beyond` samples lie strictly beyond that
/// rank. A tail percentile read from fewer samples is mostly noise, so it
/// is refused (nullopt) rather than reported.
[[nodiscard]] std::optional<double> tailPercentile(std::vector<double> values,
                                                   double q,
                                                   std::size_t min_beyond = 10);

/// FNV-1a over 64-bit words: order-sensitive, platform-independent, and
/// exact over doubles (their bit patterns are hashed, not their values).
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  void add(bool value) { add(static_cast<std::uint64_t>(value ? 1 : 0)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Allocation totals since process start, from the benchmark's counting
/// global operator new / delete (alloc_counter.cpp).
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  /// Host seconds inside operator new / delete while timing was on:
  /// estimated from one call in 16, less the clock reads' own cost.
  double seconds = 0.0;
};
[[nodiscard]] AllocCounts allocCounts();
/// Turns allocation timing on (traced runs) or off.
void setAllocTiming(bool on);

/// getrusage fields the benchmark reports.
struct ProcessCounters {
  /// This process's minor page faults.
  std::uint64_t minor_faults = 0;
  /// Peak resident set of this process.
  double peak_rss_mb = 0.0;
};
[[nodiscard]] ProcessCounters processCounters();

/// Host seconds one minor page fault costs on this machine: first-touch
/// time per page over a fresh anonymous mapping of small pages. Used to
/// turn fault counts into a computed time.
[[nodiscard]] double secondsPerMinorFault();

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double nowSeconds();

/// The kind of fixed work a SpeedProbe burst does.
enum class ProbeKind : std::uint8_t {
  /// 4 x 2000 malloc/free calls of 32-287 bytes: branchy, allocation-heavy
  /// code like the event-bound simulations. About 0.6 ms.
  kAlloc,
  /// Maps 16 MiB, copies a fixed 16 MiB source into it (first-touch page
  /// faults, zeroing, streaming copy) and unmaps it, like the data plane's
  /// fresh block buffers. About 14 ms.
  kMemory,
};

/// Host-speed probe. On a shared VM the host speed of identical work
/// swings by ±25% within seconds, with the load of other guests, and a
/// workload swings with fixed work of its own kind, which uses no
/// simulator code. Runs of the probe between operations give a speed
/// factor that turns a run's host seconds into reference seconds: the
/// seconds the work would take at the speed at which one burst takes
/// referenceSeconds().
class SpeedProbe {
 public:
  explicit SpeedProbe(ProbeKind kind) : kind_(kind) {}

  /// Burst time that defines a reference second: the burst's typical time
  /// on the reference 4-vCPU x86-64 VM.
  [[nodiscard]] double referenceSeconds() const;

  /// Runs one burst and records its host time (not recorded if the
  /// burst's memory cannot be mapped).
  void run();
  /// Runs one burst if at least 100 bursts' time has passed since the
  /// last one, so the probe costs about 1% of a run.
  void maybeRun();
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  /// Median host seconds of one burst.
  [[nodiscard]] double medianSeconds() const;
  /// Reference seconds per host second of this run.
  [[nodiscard]] double toReference() const;

 private:
  ProbeKind kind_;
  std::vector<double> samples_;
  double last_ = 0.0;
  double last_burst_ = 0.0;
  std::vector<std::uint8_t> source_;  // kMemory: the copied bytes
};

}  // namespace perfbench
