// core::Stack: observer wiring (a recorder rides on every attached tracer),
// roster resolution for the fault injector, the churn -> repair listener,
// and the ClientLoop lifecycle (deadline, retry, retirement, collection).
// Driver-level byte identity is pinned by test_driver_golden.

#include "core/stack.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string_view>
#include <utility>
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

/// A small RAID-0 file on the stack's cluster and one scheme per client,
/// for driving a ClientLoop by hand.
struct LoopBench {
  explicit LoopBench(std::uint32_t clients) : stack(smallCluster(), Rng(1)) {
    access.k = 8;
    access.block_bytes = 64 * kKiB;
    Rng rng(2);
    client::LayoutPolicy policy;
    policy.heterogeneous = false;
    for (std::uint32_t i = 0; i < clients; ++i) {
      schemes.push_back(client::makeScheme(client::SchemeKind::kRaid0,
                                           stack.cluster(),
                                           coding::LtParams{}));
    }
    file = schemes[0]->planFile(access, stack.cluster().selectDisks(4, rng),
                                policy, rng);
  }
  ClientLoop loop(std::uint32_t accesses) {
    ClientLoop l{.access = access, .accesses = accesses};
    for (auto& s : schemes) l.schemes.push_back(s.get());
    return l;
  }

  Stack stack;
  client::AccessConfig access;
  std::vector<std::unique_ptr<client::Scheme>> schemes;
  client::StoredFile file;
};

using Key = std::pair<std::uint32_t, std::uint32_t>;  // (client, access)

TEST(ClientLoop, NothingStartsAfterTheDeadline) {
  LoopBench bench(2);
  sim::Engine& engine = bench.stack.engine();
  ClientLoop loop = bench.loop(3);
  loop.stagger = 5.0;  // client 1 is due after the deadline
  loop.think = 2.0;    // client 0's third access too
  loop.deadline = 2.5;
  std::vector<Key> begun;
  std::vector<SimTime> begun_at;
  loop.begin = [&](const ClientLoop::Access& a) {
    begun.emplace_back(a.client, a.index);
    begun_at.push_back(engine.now());
    return &bench.file;
  };
  std::vector<Key> ended;
  loop.end = [&](const ClientLoop::Access& a) {
    EXPECT_TRUE(a.session.complete);
    ended.emplace_back(a.client, a.index);
    return true;
  };
  loop.collect = [](const ClientLoop::Access&) {};
  loop.run(bench.stack);

  EXPECT_EQ(begun, (std::vector<Key>{{0, 0}, {0, 1}}));
  for (const SimTime t : begun_at) EXPECT_LE(t, loop.deadline);
  EXPECT_EQ(ended, begun);
  EXPECT_EQ(engine.pendingEvents(), 0u);
  EXPECT_EQ(engine.now(), 5.0);  // the drain still ran the late timers
}

TEST(ClientLoop, RefusedBeginIsAskedAgainAfterRetry) {
  LoopBench bench(1);
  sim::Engine& engine = bench.stack.engine();
  ClientLoop loop = bench.loop(1);
  loop.retry = 0.25;
  loop.deadline = 10.0;
  std::vector<SimTime> asked;
  loop.begin = [&](const ClientLoop::Access& a) -> client::StoredFile* {
    EXPECT_EQ(a.index, 0u);
    asked.push_back(engine.now());
    return asked.size() < 3 ? nullptr : &bench.file;
  };
  SimTime ended_at = -1.0;
  loop.end = [&](const ClientLoop::Access& a) {
    EXPECT_TRUE(a.session.complete);
    EXPECT_EQ(a.session.start, 0.5);
    ended_at = engine.now();
    return true;
  };
  loop.collect = [](const ClientLoop::Access&) { ADD_FAILURE(); };
  loop.run(bench.stack);

  EXPECT_EQ(asked, (std::vector<SimTime>{0.0, 0.25, 0.5}));
  EXPECT_GT(ended_at, 0.5);
}

TEST(ClientLoop, CollectSeesUncollectedAccessesInAccessOrder) {
  LoopBench bench(2);
  ClientLoop loop = bench.loop(3);
  loop.think = 1.0;
  loop.deadline = 1.5;  // both clients' third access is still thinking
  std::set<Key> begun;
  loop.begin = [&](const ClientLoop::Access& a) {
    begun.emplace(a.client, a.index);
    return &bench.file;
  };
  loop.end = [](const ClientLoop::Access& a) { return a.index == 1; };
  std::vector<Key> collected;
  loop.collect = [&](const ClientLoop::Access& a) {
    collected.emplace_back(a.client, a.index);
    EXPECT_EQ(begun.contains({a.client, a.index}), a.index < 2);
  };
  loop.run(bench.stack);

  EXPECT_EQ(begun.size(), 4u);
  EXPECT_EQ(collected, (std::vector<Key>{{0, 0}, {0, 2}, {1, 0}, {1, 2}}));
}

// A retiree is reaped when the next access retires, once `end` collected
// it and its disk work drained; the rest are aborted at the deadline. To
// make an abort visible in the trace, each access re-opens the retiree
// before it, which by then has no request left to settle.
TEST(ClientLoop, CollectedDrainedRetireesAreReaped) {
  LoopBench bench(1);
  bench.stack.observe(/*trace=*/true, /*flight=*/false);
  ClientLoop loop = bench.loop(3);
  loop.think = 0.05;
  loop.deadline = 10.0;
  std::vector<client::Scheme::Session*> finished;  // alive until run ends
  std::vector<std::uint64_t> streams;
  loop.begin = [&](const ClientLoop::Access& a) {
    if (a.index > 0) {
      client::Scheme::Session& retiree = *finished[a.index - 1];
      EXPECT_EQ(retiree.live_requests, 0u);
      retiree.complete = false;
    }
    return &bench.file;
  };
  loop.end = [&](const ClientLoop::Access& a) {
    finished.push_back(&a.session);
    streams.push_back(a.session.stream);
    return true;
  };
  loop.collect = [](const ClientLoop::Access&) { ADD_FAILURE(); };
  loop.run(bench.stack);

  ASSERT_EQ(streams.size(), 3u);
  std::vector<std::uint64_t> aborted;
  for (const trace::Record& r : bench.stack.tracer()->records()) {
    if (r.instant && std::string_view(r.name) == "client.access_aborted") {
      aborted.push_back(r.access);
    }
  }
  // Access 0 was reaped when access 1 retired; access 1, the last
  // retiree, was aborted. Access 2 is current and complete.
  EXPECT_EQ(aborted, (std::vector<std::uint64_t>{streams[1]}));
}

}  // namespace
}  // namespace robustore::core
