#include "core/run_env.hpp"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace robustore::core {
namespace {

// Every ROBUSTORE_* knob is read through RunEnv: these tests pin the
// strict-count parser, each accessor's strict parsing and fallback
// contract, and the knobs' value mappings.

TEST(RunEnv, CountIsStrict) {
  unsetenv("ROBUSTORE_TEST_COUNT");
  EXPECT_FALSE(RunEnv::count("ROBUSTORE_TEST_COUNT").has_value());
  setenv("ROBUSTORE_TEST_COUNT", "42", 1);
  EXPECT_EQ(RunEnv::count("ROBUSTORE_TEST_COUNT"), 42u);
  for (const char* bad : {"", "0", " 7", "7 ", "+7", "-7", "7x", "0x7",
                          "99999999999999999999"}) {
    setenv("ROBUSTORE_TEST_COUNT", bad, 1);
    EXPECT_FALSE(RunEnv::count("ROBUSTORE_TEST_COUNT").has_value())
        << "'" << bad << "'";
  }
  unsetenv("ROBUSTORE_TEST_COUNT");
}

TEST(RunEnv, TrialsFallsBack) {
  unsetenv("ROBUSTORE_TRIALS");
  EXPECT_EQ(RunEnv::trials(13), 13u);
  setenv("ROBUSTORE_TRIALS", "5", 1);
  EXPECT_EQ(RunEnv::trials(13), 5u);
  setenv("ROBUSTORE_TRIALS", "bogus", 1);
  EXPECT_EQ(RunEnv::trials(13), 13u);
  unsetenv("ROBUSTORE_TRIALS");
}

TEST(RunEnv, TrialsRejectsMalformedValues) {
  // Strict parsing: trailing garbage, signs, whitespace, zero, and
  // out-of-range values all fall back instead of silently truncating.
  for (const char* bad : {"5x", "0x10", " 5", "5 ", "-3", "+4", "0", "",
                          "99999999999999999999", "4294967296"}) {
    setenv("ROBUSTORE_TRIALS", bad, 1);
    EXPECT_EQ(RunEnv::trials(13), 13u) << "'" << bad << "'";
  }
  setenv("ROBUSTORE_TRIALS", "4294967295", 1);  // still in uint32 range
  EXPECT_EQ(RunEnv::trials(13), 4294967295u);
  unsetenv("ROBUSTORE_TRIALS");
}

TEST(RunEnv, ThreadsStrictParsing) {
  unsetenv("ROBUSTORE_THREADS");
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", "6", 1);
  EXPECT_EQ(RunEnv::threads(3), 6u);
  setenv("ROBUSTORE_THREADS", "6x", 1);  // trailing garbage
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", " 6", 1);  // leading whitespace
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", "0", 1);  // zero is meaningless
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", "-2", 1);
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", "99999999999999999999", 1);  // overflow
  EXPECT_EQ(RunEnv::threads(3), 3u);
  setenv("ROBUSTORE_THREADS", "4096", 1);  // above the hard ceiling
  EXPECT_EQ(RunEnv::threads(3), 3u);
  unsetenv("ROBUSTORE_THREADS");
}

TEST(RunEnv, SeedFallsBackWhenUnsetOrInvalid) {
  unsetenv("ROBUSTORE_SEED");
  EXPECT_EQ(RunEnv::seed(7u), 7u);
  setenv("ROBUSTORE_SEED", "123456789", 1);
  EXPECT_EQ(RunEnv::seed(7u), 123456789u);
  setenv("ROBUSTORE_SEED", "nope", 1);
  EXPECT_EQ(RunEnv::seed(7u), 7u);
  unsetenv("ROBUSTORE_SEED");
}

TEST(RunEnv, ThreadsRejectsRunawayValues) {
  setenv("ROBUSTORE_THREADS", "4", 1);
  EXPECT_EQ(RunEnv::threads(2), 4u);
  setenv("ROBUSTORE_THREADS", "1025", 1);  // above the kMaxThreads guard
  EXPECT_EQ(RunEnv::threads(2), 2u);
  unsetenv("ROBUSTORE_THREADS");
  EXPECT_EQ(RunEnv::threads(2), 2u);
}

TEST(RunEnv, BoolishKnobsTreatZeroAsOff) {
  for (const char* name : {"ROBUSTORE_HOST_PROFILE", "ROBUSTORE_FLIGHT"}) {
    unsetenv(name);
  }
  EXPECT_FALSE(RunEnv::hostProfile());
  EXPECT_FALSE(RunEnv::flight());
  setenv("ROBUSTORE_FLIGHT", "1", 1);
  EXPECT_TRUE(RunEnv::flight());
  setenv("ROBUSTORE_FLIGHT", "0", 1);
  EXPECT_FALSE(RunEnv::flight());
  setenv("ROBUSTORE_FLIGHT", "", 1);
  EXPECT_FALSE(RunEnv::flight());
  unsetenv("ROBUSTORE_FLIGHT");
}

TEST(RunEnv, RetiredKnobsWarnOnceNamingTheirReplacement) {
  unsetenv("ROBUSTORE_FLIGHT");
  setenv("ROBUSTORE_TRACE", "1", 1);
  setenv("ROBUSTORE_SAMPLE_DT", "5", 1);
  testing::internal::CaptureStderr();
  // Ignored: the retired knobs switch nothing on.
  EXPECT_FALSE(RunEnv::flight());
  EXPECT_FALSE(RunEnv::flight());
  const std::string err = testing::internal::GetCapturedStderr();
  unsetenv("ROBUSTORE_TRACE");
  unsetenv("ROBUSTORE_SAMPLE_DT");

  const std::string trace_line =
      "robustore: ROBUSTORE_TRACE is retired and ignored; set "
      "ROBUSTORE_FLIGHT=1 for per-stage sums\n";
  const std::string dt_line =
      "robustore: ROBUSTORE_SAMPLE_DT is retired and ignored; use "
      "robustore_cli timeline/trace --dt-ms\n";
  // One line per retired knob, however often knobs are read.
  EXPECT_EQ(err, trace_line + dt_line);
}

TEST(RunEnv, CsvIsPresenceOnly) {
  unsetenv("ROBUSTORE_CSV");
  EXPECT_FALSE(RunEnv::csv());
  // Legacy contract: even an empty value counts as "on".
  setenv("ROBUSTORE_CSV", "", 1);
  EXPECT_TRUE(RunEnv::csv());
  unsetenv("ROBUSTORE_CSV");
}

TEST(RunEnv, JsonDirMapsOneToCwd) {
  unsetenv("ROBUSTORE_JSON");
  EXPECT_FALSE(RunEnv::jsonDir().has_value());
  setenv("ROBUSTORE_JSON", "1", 1);
  EXPECT_EQ(RunEnv::jsonDir(), std::string("."));
  setenv("ROBUSTORE_JSON", "/tmp/out", 1);
  EXPECT_EQ(RunEnv::jsonDir(), std::string("/tmp/out"));
  unsetenv("ROBUSTORE_JSON");
}

TEST(ParseNumber, UnsignedTakesOnlyTheWholeDecimalValue) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("12"), 12u);
  EXPECT_EQ(parseUnsigned("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "12x", "x", " 12", "12 ", "+12", "-1", "1.5",
                          "1e3", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parseUnsigned(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseNumber, RealTakesOnlyTheWholeFiniteValue) {
  EXPECT_EQ(parseReal("3"), 3.0);
  EXPECT_EQ(parseReal("0.25"), 0.25);
  EXPECT_EQ(parseReal("-2"), -2.0);
  EXPECT_EQ(parseReal("1e-3"), 1e-3);
  for (const char* bad :
       {"", "3x", " 3", "3 ", "+3", "inf", "nan", "1e999", "0.5.1"}) {
    EXPECT_FALSE(parseReal(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace robustore::core
