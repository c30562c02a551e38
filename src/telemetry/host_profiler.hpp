#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace robustore::telemetry {

/// The simulator's host-side hot paths: where does *wall-clock* time go
/// while simulating (as opposed to where simulated time goes, which the
/// tracer answers). Coverage matches the known hot loops; everything not
/// under a scope is "other" (trial wall time minus the scope sum).
enum class HostScope : std::uint8_t {
  kEngineDispatch,  // event callback execution (the outermost sim scope)
  kDiskService,     // disk service-time computation + queue management
  kDecode,          // LT / Raptor peeling decoder work
  kXorKernel,       // payload XOR kernels (data-mode codecs only)
};

inline constexpr std::size_t kNumHostScopes = 4;

[[nodiscard]] const char* hostScopeName(HostScope scope);

/// Merged wall-clock profile: exclusive seconds and entry counts per
/// scope. Exclusive accounting (a scope's time excludes enclosed scopes)
/// is what makes the per-scope totals sum to <= 100% of trial wall time.
struct HostProfile {
  double seconds[kNumHostScopes] = {};
  std::uint64_t calls[kNumHostScopes] = {};
  /// Total trial wall-clock seconds (sum over profiled trials).
  double wall_seconds = 0.0;
  std::uint64_t trials = 0;

  void merge(const HostProfile& other);
  [[nodiscard]] bool empty() const { return trials == 0; }
  [[nodiscard]] double scopeSeconds(HostScope s) const {
    return seconds[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double totalScopeSeconds() const;
};

/// Per-trial wall-clock profiler. One trial runs entirely on one worker
/// thread (the PR-1 pool's contract), so the active profiler is a
/// thread-local pointer: instrumentation scopes cost one thread-local
/// read and a branch when profiling is off, and draw no randomness ever.
///
/// Usage: runTrial holds a TrialGuard for the trial's duration; hot paths
/// open Scope RAII frames. Guards merge their trial's profile into a
/// mutex-protected process-global accumulator on destruction, which the
/// bench reporter snapshots into the `host_profile` JSON block.
class HostProfiler {
 public:
  /// Activates profiling on the current thread for one trial (RAII).
  /// Defined after the class: it embeds a HostProfiler, which is
  /// incomplete at this point.
  class TrialGuard;

  /// RAII instrumentation scope; no-op when no trial guard is active on
  /// this thread.
  class Scope {
   public:
    explicit Scope(HostScope scope) : profiler_(current_) {
      if (profiler_ != nullptr) profiler_->push(scope);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->pop();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostProfiler* profiler_;
  };

  /// True when ROBUSTORE_HOST_PROFILE is set to a non-empty value other
  /// than "0". Read per call (once per trial), so tests can toggle it.
  [[nodiscard]] static bool enabled();

  /// Copy of the process-global merged profile.
  [[nodiscard]] static HostProfile globalSnapshot();
  static void resetGlobal();

  [[nodiscard]] const HostProfile& profile() const { return profile_; }

 private:
  struct Frame {
    HostScope scope;
    std::chrono::steady_clock::time_point start;
    double child_seconds = 0.0;
  };

  void push(HostScope scope);
  void pop();

  // constinit: a constant-initialized thread_local needs no TLS wrapper
  // call, so Scope's read is one plain load.
  static constinit inline thread_local HostProfiler* current_ = nullptr;

  std::vector<Frame> stack_;
  HostProfile profile_;
};

/// Activates profiling on the current thread for one trial (RAII).
/// Default activation follows the ROBUSTORE_HOST_PROFILE environment
/// variable; tests pass `active` explicitly. Nests by save/restore, so a
/// trial spawned from an already-profiled section stays correct.
class HostProfiler::TrialGuard {
 public:
  explicit TrialGuard(bool active = HostProfiler::enabled());
  ~TrialGuard();
  TrialGuard(const TrialGuard&) = delete;
  TrialGuard& operator=(const TrialGuard&) = delete;

 private:
  HostProfiler profiler_;
  HostProfiler* previous_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

}  // namespace robustore::telemetry
