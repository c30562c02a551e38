#include "coding/block_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/robustore_scheme.hpp"
#include "coding/lt_codec.hpp"
#include "common/rng.hpp"
#include "core/trial_pool.hpp"
#include "sim/engine.hpp"

namespace robustore::coding {
namespace {

constexpr std::uint8_t kPoison = 0xA5;

/// Empties this thread's pool of `size`-byte buffers: asking for another
/// size frees them.
void dropPool(Bytes size) { (void)acquireBlock(size + 1); }

/// Leaves `count` buffers of `size` bytes in the pool, every byte kPoison.
void poisonPool(Bytes size, std::size_t count) {
  std::vector<BlockBuffer> held;
  for (std::size_t i = 0; i < count; ++i) {
    held.push_back(acquireBlock(size));
    std::memset(held.back().get(), kPoison, size);
  }
}

std::vector<std::uint8_t> randomData(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(BlockPool, BuffersArePageAligned) {
  // Every buffer is its own whole-page mapping, cold or reused, whatever
  // the block size (a data-plane block, one page, an odd size).
  const auto aligned = [](const BlockBuffer& b) {
    return reinterpret_cast<std::uintptr_t>(b.get()) % 4096 == 0;
  };
  for (const Bytes size : {Bytes{256 * kKiB}, Bytes{4 * kKiB}, Bytes{1000}}) {
    dropPool(size);
    std::vector<BlockBuffer> held;
    for (int i = 0; i < 3; ++i) {
      held.push_back(acquireBlock(size));
      EXPECT_TRUE(aligned(held.back())) << "cold, " << size << " bytes";
      std::memset(held.back().get(), kPoison, size);  // every byte writable
    }
    held.clear();  // into the pool
    const BlockBuffer warm = acquireBlock(size);
    EXPECT_TRUE(aligned(warm)) << "warm, " << size << " bytes";
  }
}

TEST(BlockPool, ReleasedBufferIsTheNextAcquired) {
  constexpr Bytes kSize = 4 * kKiB;
  dropPool(kSize);
  auto first = acquireBlock(kSize);
  const std::uint8_t* released = first.get();
  EXPECT_EQ(pooledBlocks(), 0u);
  first.reset();
  EXPECT_EQ(pooledBlocks(), 1u);
  const auto again = acquireBlock(kSize);
  EXPECT_EQ(again.get(), released);
  EXPECT_EQ(pooledBlocks(), 0u);
}

TEST(BlockPool, NextDecodeAcquiresThePreviousDecodesBuffers) {
  // Coded block i covers original i alone, so each arrival is kept as a
  // recovered original and the decode holds exactly k buffers.
  constexpr std::uint32_t kK = 8;
  constexpr Bytes kBlock = 8 * kKiB;
  std::vector<std::vector<std::uint32_t>> adjacency(kK);
  for (std::uint32_t i = 0; i < kK; ++i) adjacency[i] = {i};
  const LtGraph graph = LtGraph::fromAdjacency(kK, adjacency);
  Rng rng(5);
  const auto data = randomData(std::size_t{kK} * kBlock, rng);
  const LtEncoder encoder(graph, data, kBlock);
  const auto coded = encoder.encodeAll();

  const auto decode = [&](std::vector<const std::uint8_t*>& held) {
    LtDecoder decoder(graph, kBlock);
    for (std::uint32_t c = 0; c < kK; ++c) {
      (void)decoder.addSymbol(
          c, std::span(coded).subspan(std::size_t{c} * kBlock, kBlock));
    }
    EXPECT_TRUE(decoder.dataEquals(data));
    for (std::uint32_t o = 0; o < kK; ++o) {
      held.push_back(decoder.block(o).data());
    }
    std::ranges::sort(held);
  };

  dropPool(kBlock);
  std::vector<const std::uint8_t*> first;
  decode(first);
  EXPECT_EQ(pooledBlocks(), kK);  // the destructor returned every buffer
  std::vector<const std::uint8_t*> second;
  decode(second);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pooledBlocks(), kK);
}

TEST(BlockPool, PoisonedPoolDecodesLikeAColdPool) {
  constexpr std::uint32_t kK = 64;
  constexpr std::uint32_t kN = 128;
  constexpr Bytes kBlock = 4 * kKiB;
  Rng rng(9);
  const LtGraph graph = LtGraph::generate(kK, kN, LtParams{}, rng);
  const auto data = randomData(std::size_t{kK} * kBlock, rng);
  const LtEncoder encoder(graph, data, kBlock);
  const auto coded = encoder.encodeAll();
  const auto order = rng.permutation(kN);

  // Streaming: each arrival is copied into a pool buffer by the decoder.
  const auto streaming = [&] {
    LtDecoder decoder(graph, kBlock);
    for (const auto c : order) {
      if (decoder.addSymbol(
              c, std::span(coded).subspan(std::size_t{c} * kBlock, kBlock))) {
        break;
      }
    }
    EXPECT_TRUE(decoder.dataEquals(data));
    return decoder.complete() ? decoder.takeData()
                              : std::vector<std::uint8_t>{};
  };
  // Batch: every arrival owns a pool buffer it encoded into.
  const auto batch = [&] {
    std::vector<std::pair<std::uint32_t, LtDecoder::Buffer>> arrivals;
    for (const auto c : order) {
      auto arrival = acquireBlock(kBlock);
      encoder.encodeBlock(c, std::span(arrival.get(), kBlock));
      arrivals.emplace_back(c, std::move(arrival));
    }
    LtDecoder decoder(graph, kBlock);
    for (auto& [c, payload] : arrivals) {
      if (decoder.addSymbol(c, std::move(payload))) break;
    }
    EXPECT_TRUE(decoder.dataEquals(data));
    return decoder.complete() ? decoder.takeData()
                              : std::vector<std::uint8_t>{};
  };

  dropPool(kBlock);
  const auto cold_streaming = streaming();
  dropPool(kBlock);
  const auto cold_batch = batch();
  ASSERT_EQ(cold_streaming, data);
  ASSERT_EQ(cold_batch, data);

  poisonPool(kBlock, 2 * kN);
  {
    // Pool buffers are handed out as they were left, not zero-filled.
    const auto warm = acquireBlock(kBlock);
    EXPECT_TRUE(std::all_of(warm.get(), warm.get() + kBlock,
                            [](std::uint8_t b) { return b == kPoison; }));
  }
  EXPECT_EQ(streaming(), cold_streaming);
  poisonPool(kBlock, 2 * kN);
  EXPECT_EQ(batch(), cold_batch);
}

TEST(BlockPool, PoisonedPoolDataPlaneReadsVerify) {
  client::AccessConfig access;
  access.block_bytes = 16 * kKiB;
  access.k = 32;
  access.redundancy = 2.0;
  Rng data_rng(21);
  const auto data = std::make_shared<const std::vector<std::uint8_t>>(
      randomData(std::size_t{access.k} * access.block_bytes, data_rng));
  // A read holds at most one buffer per coded block, so twice that many
  // poisoned ones cover it: every buffer it uses is a poisoned one.
  const std::size_t poisoned = 2 * std::size_t{access.codedBlockCount()};
  for (const bool streaming : {true, false}) {
    poisonPool(access.block_bytes, poisoned);
    {
      sim::Engine engine;
      Rng rng(11);
      client::ClusterConfig cluster_config;
      cluster_config.num_servers = 2;
      cluster_config.server.disks_per_server = 4;
      client::Cluster cluster(engine, cluster_config, rng.fork(1));
      client::RobuStoreScheme scheme(cluster);
      scheme.attachDataPlane({.data = data, .streaming = streaming});
      const std::vector<std::uint32_t> disks{0, 1, 2, 3, 4, 5, 6, 7};
      client::LayoutPolicy policy;
      policy.heterogeneous = true;
      Rng trial(7);
      auto file = scheme.planFile(access, disks, policy, trial);
      const auto m = scheme.read(file, access);
      ASSERT_TRUE(m.complete);
      const auto report = scheme.dataPlaneReport();
      ASSERT_TRUE(report.has_value());
      EXPECT_TRUE(report->verified) << "streaming=" << streaming;
    }
    // Torn down, the read gave every buffer back and took no fresh one.
    EXPECT_EQ(pooledBlocks(), poisoned) << "streaming=" << streaming;
  }
}

TEST(BlockPool, AnotherBlockSizeFreesTheOldBuffers) {
  constexpr Bytes kOld = 4 * kKiB;
  constexpr Bytes kNew = 8 * kKiB;
  dropPool(kOld);
  std::vector<BlockBuffer> held;
  for (int i = 0; i < 3; ++i) held.push_back(acquireBlock(kOld));
  BlockBuffer straggler = std::move(held.back());
  held.pop_back();
  held.clear();
  EXPECT_EQ(pooledBlocks(), 2u);

  auto fresh = acquireBlock(kNew);
  EXPECT_EQ(pooledBlocks(), 0u);  // the two old buffers were freed
  straggler.reset();              // an old-size release is freed too
  EXPECT_EQ(pooledBlocks(), 0u);
  fresh.reset();
  EXPECT_EQ(pooledBlocks(), 1u);
}

TEST(BlockPool, TrialPoolThreadsNeverShareBuffers) {
  constexpr Bytes kSize = 12 * kKiB;
  constexpr int kRounds = 200;
  std::mutex mutex;
  std::unordered_map<const std::uint8_t*, std::uint32_t> first_owner;
  int foreign = 0;
  std::vector<int> warm(2, 0);
  std::latch both_running(2);
  core::TrialPool pool(2);
  pool.forEachIndex(2, [&](std::uint32_t job) {
    // Each job holds a worker until both run, so they are on two threads.
    both_running.arrive_and_wait();
    const std::uint8_t* last = nullptr;
    for (int r = 0; r < kRounds; ++r) {
      const bool pooled = pooledBlocks() > 0;
      auto buffer = acquireBlock(kSize);
      std::memset(buffer.get(), static_cast<int>(job), kSize);
      const std::scoped_lock lock(mutex);
      const auto [it, fresh] = first_owner.emplace(buffer.get(), job);
      if (!fresh && it->second != job) ++foreign;
      if (pooled) {
        ++warm[job];
        EXPECT_EQ(buffer.get(), last);
      }
      last = buffer.get();
    }
  });
  EXPECT_EQ(foreign, 0);
  EXPECT_GT(warm[0], 0);
  EXPECT_GT(warm[1], 0);
}

}  // namespace
}  // namespace robustore::coding
