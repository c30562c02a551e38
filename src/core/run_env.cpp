#include "core/run_env.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>

namespace robustore::core {
namespace {

/// Bad knob values are reported once each — a sweep that reads
/// ROBUSTORE_TRIALS per bench point must not spam stderr — and then the
/// documented fallback applies.
void warnOnce(const char* name, const char* raw, const char* expected) {
  static std::mutex mutex;
  static std::set<std::string> seen;
  const std::lock_guard<std::mutex> lock(mutex);
  if (!seen.emplace(name).second) return;
  std::fprintf(stderr, "robustore: ignoring invalid %s=\"%s\" (expected %s)\n",
               name, raw, expected);
}

}  // namespace

std::optional<std::uint64_t> parseUnsigned(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parseReal(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> RunEnv::count(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  // Strict: the whole string must be a decimal count that fits, and zero
  // is as meaningless as unset.
  const auto value = parseUnsigned(raw);
  if (!value || *value == 0) {
    warnOnce(name, raw, "positive integer");
    return std::nullopt;
  }
  return value;
}

std::uint32_t RunEnv::trials(std::uint32_t fallback) {
  const auto v = count("ROBUSTORE_TRIALS");
  if (!v) return fallback;
  if (*v > std::numeric_limits<std::uint32_t>::max()) {
    warnOnce("ROBUSTORE_TRIALS range", std::getenv("ROBUSTORE_TRIALS"),
             "count within uint32 range");
    return fallback;
  }
  return static_cast<std::uint32_t>(*v);
}

unsigned RunEnv::threads(unsigned fallback) {
  const auto v = count("ROBUSTORE_THREADS");
  if (!v) return fallback;
  if (*v > kMaxThreads) {
    warnOnce("ROBUSTORE_THREADS range", std::getenv("ROBUSTORE_THREADS"),
             "count <= 1024");
    return fallback;
  }
  return static_cast<unsigned>(*v);
}

std::uint64_t RunEnv::seed(std::uint64_t fallback) {
  const auto v = count("ROBUSTORE_SEED");
  return v ? *v : fallback;
}

SimTime RunEnv::sampleDt() {
  const char* raw = std::getenv("ROBUSTORE_SAMPLE_DT");
  if (raw == nullptr || *raw == '\0') return 0.0;
  const auto ms = parseReal(raw);
  if (!ms || *ms <= 0.0) {
    warnOnce("ROBUSTORE_SAMPLE_DT", raw, "positive milliseconds");
    return 0.0;
  }
  return *ms * kMilliseconds;
}

namespace {

bool boolish(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' && std::strcmp(raw, "0") != 0;
}

}  // namespace

bool RunEnv::hostProfile() { return boolish("ROBUSTORE_HOST_PROFILE"); }

bool RunEnv::trace() { return boolish("ROBUSTORE_TRACE"); }

bool RunEnv::flight() { return boolish("ROBUSTORE_FLIGHT"); }

bool RunEnv::csv() { return std::getenv("ROBUSTORE_CSV") != nullptr; }

std::optional<std::string> RunEnv::jsonDir() {
  const char* raw = std::getenv("ROBUSTORE_JSON");
  if (raw == nullptr) return std::nullopt;
  return std::string(raw) == "1" ? std::string(".") : std::string(raw);
}

std::optional<std::string> RunEnv::simdOverride() {
  const char* raw = std::getenv("ROBUSTORE_SIMD");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

}  // namespace robustore::core
