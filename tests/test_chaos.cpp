// Chaos-harness tests: generator determinism, the seeded campaign sweep
// with the full invariant battery, JSON repro round-trip, bit-identical
// replay, and the injected-bug acceptance path (catch + shrink).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

namespace robustore::chaos {
namespace {

TEST(ChaosSchedule, GeneratorIsDeterministic) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    EXPECT_EQ(planFromSeed(seed), planFromSeed(seed)) << "seed " << seed;
  }
}

TEST(ChaosSchedule, GeneratorCoversAllSchemesAndVerbs) {
  std::set<client::SchemeKind> schemes;
  std::set<ChaosVerb> verbs;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const CampaignPlan plan = planFromSeed(seed);
    schemes.insert(plan.scheme);
    EXPECT_GE(plan.events.size(), 2u);
    for (const ChaosEvent& e : plan.events) {
      verbs.insert(e.verb);
      EXPECT_LT(e.disk, plan.disks_per_access);
      EXPECT_GE(e.at, 0.5);
      EXPECT_LT(e.at, plan.deadline);
    }
    // RAID-0 has no redundancy: the generator must never destroy data.
    if (plan.scheme == client::SchemeKind::kRaid0) {
      EXPECT_FALSE(plan.destructive()) << "seed " << seed;
    }
  }
  EXPECT_EQ(schemes.size(), 4u);
  // 64 seeds comfortably draw every benign verb; destructive verbs appear
  // across the redundant schemes.
  EXPECT_TRUE(verbs.count(ChaosVerb::kStall) == 1);
  EXPECT_TRUE(verbs.count(ChaosVerb::kCrashRecover) == 1);
  EXPECT_TRUE(verbs.count(ChaosVerb::kSlowDisk) == 1);
}

TEST(ChaosSchedule, JsonRoundTripIsExact) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const CampaignPlan plan = planFromSeed(seed);
    const std::string json = serializePlan(plan);
    const CampaignPlan loaded = parsePlan(json);
    EXPECT_EQ(plan, loaded) << "seed " << seed;
    // Serializing the parse reproduces the file byte-for-byte.
    EXPECT_EQ(json, serializePlan(loaded));
  }
  const CampaignPlan buggy = buggyBackoffPlan(7);
  EXPECT_EQ(buggy, parsePlan(serializePlan(buggy)));
}

TEST(ChaosCampaign, ReplayIsBitIdentical) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const CampaignPlan plan = planFromSeed(seed);
    const CampaignResult first = runCampaign(plan);
    const CampaignResult second = runCampaign(plan);
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed;
    EXPECT_EQ(first.violations.size(), second.violations.size());
  }
}

TEST(ChaosCampaign, RoundTrippedPlanReplaysBitIdentically) {
  const CampaignPlan plan = planFromSeed(3);
  const CampaignPlan loaded = parsePlan(serializePlan(plan));
  EXPECT_EQ(runCampaign(plan).digest, runCampaign(loaded).digest);
}

// The acceptance sweep: 100 seeded campaigns across all four schemes,
// full invariant battery, repair service and data plane active. Any
// violation is a finding — print enough to reproduce it.
TEST(ChaosCampaign, HundredSeedSweepRunsClean) {
  std::set<client::SchemeKind> schemes;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const CampaignPlan plan = planFromSeed(seed);
    schemes.insert(plan.scheme);
    const CampaignResult result = runCampaign(plan);
    for (const Violation& v : result.violations) {
      ADD_FAILURE() << "seed " << seed << " [" << v.invariant
                    << "]: " << v.detail << "\nrepro:\n"
                    << serializePlan(plan);
    }
  }
  EXPECT_EQ(schemes.size(), 4u);
}

TEST(ChaosCampaign, HealthyBackoffRidesOutTheLongOutage) {
  CampaignPlan plan = buggyBackoffPlan(42);
  plan.unclamped_backoff = false;  // production clamp on
  const CampaignResult result = runCampaign(plan);
  for (const Violation& v : result.violations) {
    ADD_FAILURE() << "[" << v.invariant << "]: " << v.detail;
  }
  ASSERT_FALSE(result.observations.accesses.empty());
  EXPECT_TRUE(result.observations.accesses[0].complete);
}

TEST(ChaosCampaign, InjectedBackoffBugIsCaughtAndShrunk) {
  const CampaignPlan buggy = buggyBackoffPlan(42);
  const CampaignResult result = runCampaign(buggy);
  ASSERT_FALSE(result.passed());
  bool completion_violation = false;
  for (const Violation& v : result.violations) {
    if (v.invariant == "completion") completion_violation = true;
  }
  EXPECT_TRUE(completion_violation)
      << "the unclamped backoff must surface as a completion violation";

  const ShrinkResult shrunk = shrinkSchedule(
      buggy, [](const CampaignPlan& p) { return !runCampaign(p).passed(); });
  EXPECT_LE(shrunk.minimized.events.size(), 5u);
  // The bug needs exactly the outage: one crash-recover event.
  ASSERT_EQ(shrunk.minimized.events.size(), 1u);
  EXPECT_EQ(shrunk.minimized.events[0].verb, ChaosVerb::kCrashRecover);

  // The minimized repro still fails, identically on every replay — and
  // survives a JSON round trip.
  const CampaignResult replay_a = runCampaign(shrunk.minimized);
  const CampaignResult replay_b =
      runCampaign(parsePlan(serializePlan(shrunk.minimized)));
  EXPECT_FALSE(replay_a.passed());
  EXPECT_EQ(replay_a.digest, replay_b.digest);
}

// The deadline ends the campaign for every access: one that has not
// started by then never starts (not even in the post-deadline drain), and
// the completion invariant names it.
TEST(ChaosCampaign, NoAccessStartsAfterTheDeadline) {
  CampaignPlan plan;
  plan.seed = 7;
  plan.scheme = client::SchemeKind::kRaid0;
  plan.accesses = 3;
  const CampaignResult full = runCampaign(plan);
  ASSERT_TRUE(full.passed());
  // Access 0 starts at t = 0, so its latency is its end time; access 1
  // is due 50 ms of think time later, after the new deadline.
  plan.deadline = full.observations.accesses[0].metrics.latency + 0.02;

  const CampaignResult cut = runCampaign(plan);
  const auto& accesses = cut.observations.accesses;
  ASSERT_EQ(accesses.size(), 3u);
  EXPECT_TRUE(accesses[0].complete);
  EXPECT_FALSE(accesses[1].started);
  EXPECT_FALSE(accesses[2].started);
  std::set<std::string> completion;
  for (const Violation& v : cut.violations) {
    if (v.invariant == "completion") completion.insert(v.detail);
  }
  EXPECT_EQ(completion, (std::set<std::string>{"access 1 never started",
                                               "access 2 never started"}));
}

TEST(ChaosShrink, EmptyScheduleShortCircuits) {
  CampaignPlan plan = planFromSeed(1);
  const ShrinkResult shrunk =
      shrinkSchedule(plan, [](const CampaignPlan&) { return true; });
  EXPECT_TRUE(shrunk.minimized.events.empty());
  EXPECT_EQ(shrunk.tests_run, 2u);  // input verification + empty probe
}

TEST(ChaosInvariants, RegistryNamesAreStable) {
  const auto names = InvariantRegistry::standard().names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[0], "completion");
  EXPECT_EQ(names[5], "ledger");
  EXPECT_EQ(names[6], "repair-convergence");
}

}  // namespace
}  // namespace robustore::chaos
