// core::Stack: observer wiring (a recorder rides on every attached tracer),
// roster resolution for the fault injector, the churn -> repair listener,
// and the runUntil -> abort -> drain quiesce. Driver-level byte identity
// is pinned by test_driver_golden.

#include "core/stack.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace robustore::core {
namespace {

client::ClusterConfig smallCluster() {
  client::ClusterConfig cc;
  cc.num_servers = 2;
  cc.server.disks_per_server = 4;
  return cc;
}

TEST(Stack, ObserversAreOffUntilAsked) {
  Stack stack(smallCluster(), Rng(1));
  stack.observe(/*trace=*/false, /*flight=*/false);
  EXPECT_EQ(stack.tracer(), nullptr);
  EXPECT_EQ(stack.recorder(), nullptr);
  EXPECT_EQ(stack.cluster().tracer(), nullptr);
}

TEST(Stack, TracingCarriesARecorderAsTheStageSource) {
  Stack stack(smallCluster(), Rng(1));
  stack.observe(/*trace=*/true, /*flight=*/false);
  ASSERT_NE(stack.tracer(), nullptr);
  EXPECT_TRUE(stack.tracer()->enabled());
  EXPECT_EQ(stack.tracer()->sink(), stack.recorder());
  EXPECT_EQ(stack.cluster().tracer(), stack.tracer());
}

TEST(Stack, FlightOnlyRidesADisabledTracer) {
  Stack stack(smallCluster(), Rng(1));
  stack.observe(/*trace=*/false, /*flight=*/true);
  ASSERT_NE(stack.tracer(), nullptr);
  EXPECT_FALSE(stack.tracer()->enabled());
  ASSERT_NE(stack.recorder(), nullptr);
  EXPECT_EQ(stack.tracer()->sink(), stack.recorder());
}

TEST(Stack, RosterResolvesInjectorDisks) {
  Stack stack(smallCluster(), Rng(1));
  EXPECT_EQ(stack.rosterDisk(6), 6u);  // no roster: global indices
  stack.injectFaults({5, 1, 7});
  EXPECT_EQ(stack.rosterDisk(0), 5u);
  EXPECT_EQ(stack.rosterDisk(2), 7u);
  EXPECT_EQ(stack.rosterDisk(4), 1u);  // wraps like the injector
}

TEST(Stack, ChurnReachesRepairAndTheReplacementHook) {
  Stack stack(smallCluster(), Rng(1));
  repair::RepairConfig rcfg;
  rcfg.horizon = 10.0;
  stack.addRepair(rcfg);
  stack.injectFaults({3, 6});
  std::vector<std::uint32_t> replaced;
  stack.repairOnChurn([&](std::uint32_t disk) { replaced.push_back(disk); });
  stack.injector()->scheduleChurn(
      {{1, fault::ChurnEventKind::kPermanentFailure, 1.0},
       {1, fault::ChurnEventKind::kReplacement, 2.0}});

  stack.engine().runUntil(1.5);
  EXPECT_FALSE(stack.cluster().metadata().diskUp(6));  // roster disk 1
  EXPECT_TRUE(stack.cluster().metadata().diskUp(3));
  EXPECT_TRUE(replaced.empty());
  stack.engine().runUntil(2.5);
  EXPECT_TRUE(stack.cluster().metadata().diskUp(6));
  EXPECT_EQ(replaced, (std::vector<std::uint32_t>{1}));
}

TEST(Stack, QuiesceAbortsAtTheDeadlineThenDrains) {
  Stack stack(smallCluster(), Rng(1));
  std::vector<SimTime> fired;
  stack.engine().schedule(1.0, [&] { fired.push_back(1.0); });
  stack.engine().schedule(3.0, [&] { fired.push_back(3.0); });
  std::size_t fired_at_abort = 0;
  stack.quiesce(2.0, [&] {
    fired_at_abort = fired.size();
    EXPECT_EQ(stack.engine().now(), 2.0);
  });
  EXPECT_EQ(fired_at_abort, 1u);
  EXPECT_EQ(fired.size(), 2u);  // the drain runs what is left
}

}  // namespace
}  // namespace robustore::core
