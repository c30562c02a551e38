#include "telemetry/host_profiler.hpp"

#include <mutex>

#include "core/run_env.hpp"

namespace robustore::telemetry {
namespace {

std::mutex global_mutex;
HostProfile global_profile;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* hostScopeName(HostScope scope) {
  switch (scope) {
    case HostScope::kEngineDispatch:
      return "engine.dispatch";
    case HostScope::kDiskService:
      return "disk.service";
    case HostScope::kDecode:
      return "client.decode";
    case HostScope::kXorKernel:
      return "coding.xor";
  }
  return "?";
}

void HostProfile::merge(const HostProfile& other) {
  for (std::size_t i = 0; i < kNumHostScopes; ++i) {
    seconds[i] += other.seconds[i];
    calls[i] += other.calls[i];
  }
  wall_seconds += other.wall_seconds;
  trials += other.trials;
}

double HostProfile::totalScopeSeconds() const {
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total;
}

bool HostProfiler::enabled() { return core::RunEnv::hostProfile(); }

HostProfile HostProfiler::globalSnapshot() {
  const std::lock_guard<std::mutex> lock(global_mutex);
  return global_profile;
}

void HostProfiler::resetGlobal() {
  const std::lock_guard<std::mutex> lock(global_mutex);
  global_profile = HostProfile{};
}

HostProfiler::TrialGuard::TrialGuard(bool active) : active_(active) {
  if (!active_) return;
  previous_ = current_;
  current_ = &profiler_;
  start_ = std::chrono::steady_clock::now();
}

HostProfiler::TrialGuard::~TrialGuard() {
  if (!active_) return;
  current_ = previous_;
  profiler_.profile_.wall_seconds = secondsSince(start_);
  profiler_.profile_.trials = 1;
  const std::lock_guard<std::mutex> lock(global_mutex);
  global_profile.merge(profiler_.profile_);
}

void HostProfiler::push(HostScope scope) {
  stack_.push_back(Frame{scope, std::chrono::steady_clock::now(), 0.0});
}

void HostProfiler::pop() {
  Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed = secondsSince(frame.start);
  // Exclusive accounting: this frame's self time is its elapsed time
  // minus what enclosed frames already claimed, and the full elapsed time
  // is charged against the parent's self time in turn.
  const double self = elapsed - frame.child_seconds;
  const auto i = static_cast<std::size_t>(frame.scope);
  profile_.seconds[i] += self > 0.0 ? self : 0.0;
  ++profile_.calls[i];
  if (!stack_.empty()) stack_.back().child_seconds += elapsed;
}

}  // namespace robustore::telemetry
