#include "coding/lt_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coding/xor_kernel.hpp"
#include "common/rng.hpp"

namespace robustore::coding {
namespace {

std::vector<std::uint8_t> randomData(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// Encodes coded block `c` into an uninitialised pool buffer, the way a
/// streaming arrival owns its payload.
LtDecoder::Buffer encodeArrival(const LtEncoder& encoder, std::uint32_t c,
                                Bytes block) {
  auto arrival = acquireBlock(block);
  encoder.encodeBlock(c, std::span(arrival.get(), block));
  return arrival;
}

std::span<const std::uint8_t> sourceBlock(
    const std::vector<std::uint8_t>& data, std::uint32_t o, Bytes block) {
  return std::span(data).subspan(std::size_t{o} * block, block);
}

struct CodecShape {
  std::uint32_t k;
  std::uint32_t n;
  Bytes block;
};

class LtCodecTest : public ::testing::TestWithParam<CodecShape> {};

TEST_P(LtCodecTest, RoundTripInRandomArrivalOrder) {
  const auto [k, n, block] = GetParam();
  Rng rng(k + n + block);
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);
  const auto coded = encoder.encodeAll();

  LtDecoder decoder(graph, block);
  const auto order = rng.permutation(n);
  std::uint32_t used = 0;
  for (const auto c : order) {
    ++used;
    if (decoder.addSymbol(
            c, std::span(coded).subspan(c * block, block))) {
      break;
    }
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.symbolsUsed(), used);
  EXPECT_EQ(decoder.takeData(), data);
}

TEST_P(LtCodecTest, IdModeFollowsTheSameSchedule) {
  const auto [k, n, block] = GetParam();
  Rng rng(k * 3 + n);
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);
  const auto coded = encoder.encodeAll();

  LtDecoder with_data(graph, block);
  LtDecoder ids_only(graph);
  const auto order = rng.permutation(n);
  for (const auto c : order) {
    const bool a =
        with_data.addSymbol(c, std::span(coded).subspan(c * block, block));
    const bool b = ids_only.addSymbol(c);
    ASSERT_EQ(a, b);
    ASSERT_EQ(with_data.recoveredCount(), ids_only.recoveredCount());
    if (a) break;
  }
  EXPECT_EQ(with_data.symbolsUsed(), ids_only.symbolsUsed());
  EXPECT_EQ(with_data.edgesUsed(), ids_only.edgesUsed());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LtCodecTest,
    ::testing::Values(CodecShape{8, 32, 16}, CodecShape{32, 128, 64},
                      CodecShape{128, 512, 32}, CodecShape{256, 1024, 8},
                      CodecShape{1024, 4096, 4}));

TEST(LtDecoder, DuplicateSymbolsAreIgnored) {
  Rng rng(1);
  const LtGraph graph = LtGraph::generate(32, 128, LtParams{}, rng);
  LtDecoder decoder(graph);
  decoder.addSymbol(5);
  const auto used = decoder.symbolsUsed();
  decoder.addSymbol(5);
  EXPECT_EQ(decoder.symbolsUsed(), used);
}

TEST(LtDecoder, EncoderBlockIsXorOfNeighbors) {
  Rng rng(2);
  const Bytes block = 64;
  const LtGraph graph = LtGraph::generate(16, 64, LtParams{}, rng);
  const auto data = randomData(16 * block, rng);
  const LtEncoder encoder(graph, data, block);
  for (std::uint32_t c = 0; c < 64; ++c) {
    std::vector<std::uint8_t> expected(block, 0);
    for (const auto o : graph.neighbors(c)) {
      xorInto(expected,
              std::span<const std::uint8_t>(data).subspan(o * block, block));
    }
    std::vector<std::uint8_t> actual(block);
    encoder.encodeBlock(c, actual);
    EXPECT_EQ(actual, expected) << "coded block " << c;
  }
}

TEST(LtDecoder, ReceptionOverheadNearHalfAtPaperParams) {
  // §6.2.5: C=1, delta=0.5 gives ~0.5 reception overhead for K=1024.
  Rng rng(3);
  double total = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const LtGraph graph = LtGraph::generate(1024, 8192, LtParams{}, rng);
    LtDecoder decoder(graph);
    const auto order = rng.permutation(8192);
    for (const auto c : order) {
      if (decoder.addSymbol(c)) break;
    }
    ASSERT_TRUE(decoder.complete());
    total += static_cast<double>(decoder.symbolsUsed()) / 1024.0 - 1.0;
  }
  const double overhead = total / trials;
  EXPECT_GT(overhead, 0.2);
  EXPECT_LT(overhead, 0.9);
}

TEST(LtDecoder, LazyXorCostIsBounded) {
  Rng rng(4);
  const LtGraph graph = LtGraph::generate(256, 1024, LtParams{}, rng);
  LtDecoder decoder(graph);
  const auto order = rng.permutation(1024);
  for (const auto c : order) {
    if (decoder.addSymbol(c)) break;
  }
  ASSERT_TRUE(decoder.complete());
  // Exactly one resolving block per original, each costing degree-1 XORs:
  // xorOps = edgesUsed - K.
  EXPECT_EQ(decoder.xorOps(), decoder.edgesUsed() - 256);
  EXPECT_LT(decoder.edgesUsed(), graph.totalEdges());
}

TEST(LtDecoder, SupersetOfDecodableSetStillDecodes) {
  Rng rng(5);
  const LtGraph graph = LtGraph::generate(64, 256, LtParams{}, rng);
  // Find a decodable prefix, then replay it interleaved with extras.
  LtDecoder first(graph);
  const auto order = rng.permutation(256);
  std::vector<std::uint32_t> prefix;
  for (const auto c : order) {
    prefix.push_back(c);
    if (first.addSymbol(c)) break;
  }
  ASSERT_TRUE(first.complete());

  LtDecoder second(graph);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    second.addSymbol(prefix[i]);
    second.addSymbol(order[(i * 7 + 3) % order.size()]);  // noise
  }
  EXPECT_TRUE(second.complete());
}

TEST(LtDecoder, RecoveredFlagsAreConsistent) {
  Rng rng(6);
  const LtGraph graph = LtGraph::generate(32, 128, LtParams{}, rng);
  LtDecoder decoder(graph);
  for (std::uint32_t c = 0; c < 128; ++c) {
    if (decoder.addSymbol(c)) break;
  }
  ASSERT_TRUE(decoder.complete());
  for (std::uint32_t o = 0; o < 32; ++o) EXPECT_TRUE(decoder.isRecovered(o));
}

TEST(LtDecoder, AddAfterCompleteIsNoOp) {
  Rng rng(7);
  const LtGraph graph = LtGraph::generate(16, 64, LtParams{}, rng);
  LtDecoder decoder(graph);
  for (std::uint32_t c = 0; c < 64; ++c) decoder.addSymbol(c);
  ASSERT_TRUE(decoder.complete());
  const auto used = decoder.symbolsUsed();
  decoder.addSymbol(63);
  EXPECT_EQ(decoder.symbolsUsed(), used);
}

TEST(LtDecoder, MoveInOverloadMatchesSpanOverload) {
  // Streaming arrivals hand their buffer over; the decode result and every
  // counter must be indistinguishable from the copying overload.
  Rng rng(8);
  const std::uint32_t k = 64, n = 256;
  const Bytes block = 48;
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);
  const auto coded = encoder.encodeAll();

  LtDecoder copying(graph, block);
  LtDecoder adopting(graph, block);
  const auto order = rng.permutation(n);
  for (const auto c : order) {
    const bool a =
        copying.addSymbol(c, std::span(coded).subspan(c * block, block));
    const bool b = adopting.addSymbol(c, encodeArrival(encoder, c, block));
    ASSERT_EQ(a, b);
    if (a) break;
  }
  ASSERT_TRUE(adopting.complete());
  EXPECT_EQ(adopting.symbolsUsed(), copying.symbolsUsed());
  EXPECT_EQ(adopting.edgesUsed(), copying.edgesUsed());
  EXPECT_EQ(adopting.xorOps(), copying.xorOps());
  EXPECT_EQ(adopting.takeData(), copying.takeData());
  EXPECT_EQ(adopting.recoveredCount(), k);
}

TEST(LtDecoder, StreamingFastPathResolvesDegreeOneArrivalsInPlace) {
  // A degree-one arrival must recover its original immediately — before
  // addSymbol returns — rather than waiting for a later drain. Observed
  // through recoveredCount() advancing on the arrival itself.
  Rng rng(9);
  const std::uint32_t k = 32, n = 128;
  const Bytes block = 16;
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);

  LtDecoder decoder(graph, block);
  for (std::uint32_t c = 0; c < n; ++c) {
    std::uint32_t open = 0;
    for (const auto o : graph.neighbors(c)) {
      if (!decoder.isRecovered(o)) ++open;
    }
    const auto before = decoder.recoveredCount();
    const bool done = decoder.addSymbol(c, encodeArrival(encoder, c, block));
    if (open == 1) {
      EXPECT_GE(decoder.recoveredCount(), before + 1) << "coded=" << c;
    }
    if (done) break;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.takeData(), data);
}

TEST(LtDecoder, MoveInArrivalsBecomeTheRecoveredBlocks) {
  // Data-mode ownership: a recovered original lives in the buffer of the
  // coded block that resolved it — a degree-one arrival's own buffer, or
  // a waiting block's buffer when the ripple resolves it.
  const Bytes block = 32;
  const LtGraph graph = LtGraph::fromAdjacency(3, {{0, 1}, {0}, {1, 2}});
  Rng rng(10);
  const auto data = randomData(3 * block, rng);
  const LtEncoder encoder(graph, data, block);
  LtDecoder decoder(graph, block);

  auto waiting = encodeArrival(encoder, 0, block);  // {0,1}: must wait
  const std::uint8_t* waiting_ptr = waiting.get();
  EXPECT_FALSE(decoder.addSymbol(0, std::move(waiting)));
  EXPECT_EQ(decoder.recoveredCount(), 0u);

  auto single = encodeArrival(encoder, 1, block);  // {0}: resolves o0
  const std::uint8_t* single_ptr = single.get();
  EXPECT_FALSE(decoder.addSymbol(1, std::move(single)));
  ASSERT_TRUE(decoder.isRecovered(0));
  ASSERT_TRUE(decoder.isRecovered(1));  // the ripple peeled block 0
  EXPECT_EQ(decoder.block(0).data(), single_ptr);
  EXPECT_EQ(decoder.block(1).data(), waiting_ptr);

  auto last = encodeArrival(encoder, 2, block);  // {1,2}: degree one now
  const std::uint8_t* last_ptr = last.get();
  EXPECT_TRUE(decoder.addSymbol(2, std::move(last)));
  EXPECT_EQ(decoder.block(2).data(), last_ptr);
  for (std::uint32_t o = 0; o < 3; ++o) {
    EXPECT_TRUE(
        std::ranges::equal(decoder.block(o), sourceBlock(data, o, block)))
        << "original=" << o;
  }
  EXPECT_EQ(decoder.xorOps(), 2u);
}

TEST(LtDecoder, RecoveredBlocksMatchTheSourceAtEveryStep) {
  // Every recovered original is readable in place, with the right bytes,
  // as soon as it is recovered — whichever overload delivered it.
  Rng rng(11);
  const std::uint32_t k = 64, n = 256;
  const Bytes block = 40;
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);
  const auto coded = encoder.encodeAll();

  LtDecoder decoder(graph, block);
  const auto order = rng.permutation(n);
  bool done = false;
  for (std::size_t i = 0; i < order.size() && !done; ++i) {
    const auto c = order[i];
    if (i % 2 == 0) {
      done = decoder.addSymbol(c, std::span(coded).subspan(c * block, block));
    } else {
      done = decoder.addSymbol(c, encodeArrival(encoder, c, block));
    }
    for (std::uint32_t o = 0; o < k; ++o) {
      if (!decoder.isRecovered(o)) continue;
      ASSERT_TRUE(
          std::ranges::equal(decoder.block(o), sourceBlock(data, o, block)))
          << "step=" << i << " original=" << o;
    }
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_TRUE(decoder.dataEquals(data));
}

TEST(LtDecoder, DataEqualsRejectsMismatchesAndIncompleteDecodes) {
  Rng rng(12);
  const std::uint32_t k = 32, n = 128;
  const Bytes block = 24;
  const LtGraph graph = LtGraph::generate(k, n, LtParams{}, rng);
  const auto data = randomData(static_cast<std::size_t>(k) * block, rng);
  const LtEncoder encoder(graph, data, block);

  LtDecoder decoder(graph, block);
  const auto order = rng.permutation(n);
  for (const auto c : order) {
    if (!decoder.complete()) {
      EXPECT_FALSE(decoder.dataEquals(data));
    }
    if (decoder.addSymbol(c, encodeArrival(encoder, c, block))) break;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_TRUE(decoder.dataEquals(data));

  auto first = data;
  first.front() ^= 0x01;
  EXPECT_FALSE(decoder.dataEquals(first));
  auto last = data;
  last.back() ^= 0x80;
  EXPECT_FALSE(decoder.dataEquals(last));
  const std::span<const std::uint8_t> all(data);
  EXPECT_FALSE(decoder.dataEquals(all.first(all.size() - 1)));
  auto longer = data;
  longer.push_back(0);
  EXPECT_FALSE(decoder.dataEquals(longer));
  EXPECT_TRUE(decoder.dataEquals(data));  // the checks consumed nothing
}

}  // namespace
}  // namespace robustore::coding
