#include "core/run_env.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <utility>

namespace robustore::core {
namespace {

/// Each warning is printed once per `key` — a sweep that reads
/// ROBUSTORE_TRIALS per bench point must not spam stderr.
void warnOnce(const std::string& key, const std::string& message) {
  static std::mutex mutex;
  static std::set<std::string> seen;
  const std::lock_guard<std::mutex> lock(mutex);
  if (!seen.emplace(key).second) return;
  std::fprintf(stderr, "robustore: %s\n", message.c_str());
}

/// A bad knob value is reported, then the documented fallback applies.
void warnInvalid(const char* name, const char* raw, const char* expected) {
  warnOnce(name, std::string("ignoring invalid ") + name + "=\"" + raw +
                     "\" (expected " + expected + ")");
}

/// Knobs that no longer exist, with what replaced them. Setting one has
/// no effect but a warning.
constexpr std::pair<const char*, const char*> kRetiredKnobs[] = {
    {"ROBUSTORE_TRACE", "set ROBUSTORE_FLIGHT=1 for per-stage sums"},
    {"ROBUSTORE_SAMPLE_DT", "use robustore_cli timeline/trace --dt-ms"},
};

/// Every knob read goes through here, so a retired knob left in a script
/// is reported by whichever program reads its first knob.
const char* knob(const char* name) {
  for (const auto& [retired, replacement] : kRetiredKnobs) {
    if (std::getenv(retired) != nullptr) {
      warnOnce(retired, std::string(retired) + " is retired and ignored; " +
                            replacement);
    }
  }
  return std::getenv(name);
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
  const char* raw = knob(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  // Strict: the whole string must be a decimal count that fits, and zero
  // is as meaningless as unset.
  const auto value = parseUnsigned(raw);
  if (!value || *value == 0) {
    warnInvalid(name, raw, "positive integer");
    return std::nullopt;
  }
  return value;
}

std::uint32_t RunEnv::trials(std::uint32_t fallback) {
  const auto v = count("ROBUSTORE_TRIALS");
  if (!v) return fallback;
  if (*v > std::numeric_limits<std::uint32_t>::max()) {
    warnInvalid("ROBUSTORE_TRIALS range", knob("ROBUSTORE_TRIALS"),
                "count within uint32 range");
    return fallback;
  }
  return static_cast<std::uint32_t>(*v);
}

unsigned RunEnv::threads(unsigned fallback) {
  const auto v = count("ROBUSTORE_THREADS");
  if (!v) return fallback;
  if (*v > kMaxThreads) {
    warnInvalid("ROBUSTORE_THREADS range", knob("ROBUSTORE_THREADS"),
                "count <= 1024");
    return fallback;
  }
  return static_cast<unsigned>(*v);
}

std::uint64_t RunEnv::seed(std::uint64_t fallback) {
  const auto v = count("ROBUSTORE_SEED");
  return v ? *v : fallback;
}

namespace {

bool boolish(const char* name) {
  const char* raw = knob(name);
  return raw != nullptr && *raw != '\0' && std::strcmp(raw, "0") != 0;
}

}  // namespace

bool RunEnv::hostProfile() { return boolish("ROBUSTORE_HOST_PROFILE"); }

bool RunEnv::flight() { return boolish("ROBUSTORE_FLIGHT"); }

bool RunEnv::csv() { return knob("ROBUSTORE_CSV") != nullptr; }

std::optional<std::string> RunEnv::jsonDir() {
  const char* raw = knob("ROBUSTORE_JSON");
  if (raw == nullptr) return std::nullopt;
  return std::string(raw) == "1" ? std::string(".") : std::string(raw);
}

std::optional<std::string> RunEnv::simdOverride() {
  const char* raw = knob("ROBUSTORE_SIMD");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

}  // namespace robustore::core
