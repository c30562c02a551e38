#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace robustore::core {

/// Whole-string decimal parse shared by the ROBUSTORE_* knobs and every
/// command-line flag: the entire text must be the number — "8", not "8x",
/// " 8", "+8", "-1", "1.5" or "". Range rules (e.g. "positive") are the
/// caller's.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/// Whole-string finite decimal real ("0.5", "3", "-2", "1e-3"); nullopt
/// for anything else, including trailing junk, "inf" and "nan".
[[nodiscard]] std::optional<double> parseReal(std::string_view text);

/// Unified, strictly-parsed access to every `ROBUSTORE_*` environment
/// knob. All run configuration flows through here: one parser, one
/// documented table, one place that reports bad values (once per knob,
/// to stderr, then the documented fallback applies). CLI flags override
/// these knobs; the knobs override built-in defaults.
///
/// ## Knob table
///
/// | knob                   | type            | meaning                         |
/// |------------------------|-----------------|---------------------------------|
/// | ROBUSTORE_TRIALS       | count (u32)     | trials per experiment           |
/// | ROBUSTORE_THREADS      | count ≤ 1024    | trial-pool worker threads       |
/// | ROBUSTORE_SEED         | count (u64)     | base RNG seed override          |
/// | ROBUSTORE_HOST_PROFILE | bool-ish        | host_profile block in BENCH_*   |
/// | ROBUSTORE_FLIGHT       | bool-ish        | access flight recorder: stage   |
/// |                        |                 | sums of reads and writes, tail  |
/// |                        |                 | forensics                       |
/// | ROBUSTORE_CSV          | presence        | CSV block in bench output       |
/// | ROBUSTORE_JSON         | "1" or dir path | write BENCH_*.json ("1" = cwd)  |
/// | ROBUSTORE_SIMD         | level name      | coding-kernel dispatch override |
/// |                        |                 | (scalar, avx2, avx512, neon,    |
/// |                        |                 | auto; unsupported levels warn   |
/// |                        |                 | and fall back to detection)     |
///
/// "count" means the whole value must be a positive decimal integer
/// ("8", not "8x", " 8", "+8", or "0") that fits the stated range —
/// anything else falls back, it is never silently truncated. "bool-ish"
/// means set and neither empty nor "0". "presence" means set at all,
/// even to the empty string (legacy behavior, kept for script compat).
///
/// Every accessor reads the environment on each call (no caching), so
/// tests and embedders may setenv/unsetenv between calls. Retired knobs
/// are ignored; while one is set, the first knob read warns once, naming
/// its replacement.
class RunEnv {
 public:
  /// Strict positive decimal count from an arbitrary environment
  /// variable; nullopt for unset/empty/malformed/zero/overflow (with the
  /// one-time warning when set but invalid).
  [[nodiscard]] static std::optional<std::uint64_t> count(const char* name);

  /// ROBUSTORE_TRIALS, or `fallback` when unset/invalid/out of u32 range.
  [[nodiscard]] static std::uint32_t trials(std::uint32_t fallback);

  /// ROBUSTORE_THREADS, or `fallback` when unset/invalid/above the 1024
  /// runaway guard.
  [[nodiscard]] static unsigned threads(unsigned fallback);

  /// ROBUSTORE_SEED, or `fallback` when unset/invalid.
  [[nodiscard]] static std::uint64_t seed(std::uint64_t fallback);

  /// ROBUSTORE_HOST_PROFILE as bool-ish.
  [[nodiscard]] static bool hostProfile();

  /// ROBUSTORE_FLIGHT as bool-ish.
  [[nodiscard]] static bool flight();

  /// ROBUSTORE_CSV as presence.
  [[nodiscard]] static bool csv();

  /// ROBUSTORE_JSON mapped to the output directory: nullopt when unset,
  /// "." when "1", the literal value otherwise.
  [[nodiscard]] static std::optional<std::string> jsonDir();

  /// ROBUSTORE_SIMD verbatim (nullopt when unset/empty). Interpretation —
  /// level names, CPU-support clamping, the "auto" no-op — lives in
  /// coding::simd, which sits below this library; this accessor is the
  /// documented knob surface.
  [[nodiscard]] static std::optional<std::string> simdOverride();

  /// Ceiling applied by threads(): a typo'd knob must not spawn millions
  /// of workers.
  static constexpr unsigned kMaxThreads = 1024;
};

}  // namespace robustore::core
