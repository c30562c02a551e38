#include "core/trial_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace robustore::core {
namespace {

TEST(TrialPool, RunsEveryIndexExactlyOnce) {
  TrialPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.forEachIndex(100, [&](std::uint32_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialPool, SlotWritesLandInIndexOrder) {
  // The canonical usage: job i writes slot i; the caller reduces slots in
  // order, independent of scheduling.
  TrialPool pool(8);
  std::vector<std::uint32_t> slots(257, 0);
  pool.forEachIndex(257, [&](std::uint32_t i) { slots[i] = i * 3 + 1; });
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i * 3 + 1);
  }
}

TEST(TrialPool, ZeroJobsIsANoOp) {
  TrialPool pool(2);
  pool.forEachIndex(0, [](std::uint32_t) { FAIL() << "no jobs expected"; });
}

TEST(TrialPool, SingleThreadStillDrainsTheQueue) {
  TrialPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  std::atomic<int> sum{0};
  pool.forEachIndex(10, [&](std::uint32_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(TrialPool, PoolIsReusableAcrossBatches) {
  TrialPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.forEachIndex(7, [&](std::uint32_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 35);
}

TEST(TrialPool, FirstExceptionPropagatesAfterBatchDrains) {
  TrialPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.forEachIndex(20,
                                 [&](std::uint32_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("trial failed");
                                   }
                                   ++completed;
                                 }),
               std::runtime_error);
  // All non-throwing jobs still ran: no torn batches.
  EXPECT_EQ(completed.load(), 19);
  // The pool recovered: the error does not leak into the next batch.
  std::atomic<int> ok{0};
  pool.forEachIndex(4, [&](std::uint32_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(TrialPool, EnvOverridesDefaultThreads) {
  setenv("ROBUSTORE_THREADS", "2", 1);
  EXPECT_EQ(TrialPool::defaultThreads(), 2u);
  TrialPool pool;  // threads = 0 resolves through the env
  EXPECT_EQ(pool.threadCount(), 2u);
  unsetenv("ROBUSTORE_THREADS");
  EXPECT_GE(TrialPool::defaultThreads(), 1u);
}

}  // namespace
}  // namespace robustore::core
