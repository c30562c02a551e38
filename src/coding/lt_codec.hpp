#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/block_pool.hpp"
#include "coding/lt_graph.hpp"
#include "common/units.hpp"

namespace robustore::coding {

/// LT encoder: each coded block is the XOR of its graph neighbors.
///
/// Encoding is stateless with respect to order, so the storage client can
/// overlap it with network I/O (§5.2.1: coding off the critical path).
class LtEncoder {
 public:
  /// `data` holds the k original blocks concatenated (k * block_size bytes).
  LtEncoder(const LtGraph& graph, std::span<const std::uint8_t> data,
            Bytes block_size);

  [[nodiscard]] const LtGraph& graph() const { return *graph_; }

  /// Writes coded block `index` into `out` (block_size bytes).
  void encodeBlock(std::uint32_t index, std::span<std::uint8_t> out) const;

  /// Encodes every coded block; returns n * block_size bytes.
  [[nodiscard]] std::vector<std::uint8_t> encodeAll() const;

 private:
  const LtGraph* graph_;
  std::span<const std::uint8_t> data_;
  Bytes block_size_;
};

/// Incremental LT peeling decoder with lazy XOR (§5.2.3(3)).
///
/// Two modes share one implementation:
///  * data mode (block_size > 0): payloads are XOR-combined and the
///    original data can be extracted on completion;
///  * ID mode (block_size == 0): runs the identical peeling schedule over
///    block identities only — this is what the storage simulator uses to
///    learn exactly when a read access can complete.
///
/// Data-mode ownership: the decoder's memory is the received coded blocks
/// and nothing else. A block that must wait for more arrivals is held in
/// its own buffer; when it resolves, the recovered neighbours are XORed
/// into that buffer in place and the buffer becomes the recovered
/// original's storage. There is no separate k × block_size output array,
/// so recovered originals are read one at a time through block(), compared
/// in place by dataEquals(), or gathered into one vector by takeData().
///
/// Every buffer comes from the thread's block pool (acquireBlock) and goes
/// back to it however it is released: by the destructor, by takeData(),
/// or because an arrival was already fully recovered or came after the
/// decode completed. The next decode on that thread then reuses warm
/// pages. A pool buffer is uninitialised; every byte is overwritten (by
/// the one copy, or by the arrival's own encode) before it is read.
class LtDecoder {
 public:
  /// One block-sized pool buffer, uninitialised on acquisition.
  using Buffer = BlockBuffer;

  /// `watch_prefix` (default: all of k) selects how many leading original
  /// blocks the prefix counter tracks; composed codes (Raptor) use it to
  /// detect "all source symbols recovered" before every intermediate is.
  explicit LtDecoder(const LtGraph& graph, Bytes block_size = 0,
                     std::uint32_t watch_prefix = ~0u);

  /// Feeds one received coded block. Duplicate ids are ignored (returns
  /// current completion state). In data mode `payload` must be block_size
  /// bytes; in ID mode it must be empty.
  ///
  /// Streaming contract: a block that reduces to degree one on arrival
  /// resolves its original before addSymbol returns, and the ripple it
  /// triggers runs too, so feeding blocks as transfers complete
  /// interleaves all peeling work with I/O and leaves no decode batch for
  /// the end of the read. The bytes are copied once, into a pool buffer,
  /// only when they must be kept (the block resolves or has to wait); a
  /// block that arrives fully recovered is dropped without a copy.
  bool addSymbol(std::uint32_t coded_id,
                 std::span<const std::uint8_t> payload = {});

  /// Move-in variant for arrivals that own a block_size buffer
  /// (acquireBlock(block_size)): the decoder adopts it (as the waiting
  /// block, or as the original it resolves) and never copies the bytes;
  /// a buffer it does not adopt stays with the caller.
  bool addSymbol(std::uint32_t coded_id, Buffer&& payload);

  [[nodiscard]] bool complete() const { return recovered_count_ == graph_->k(); }
  [[nodiscard]] std::uint32_t recoveredCount() const { return recovered_count_; }
  /// Recovered blocks among the first `watch_prefix` originals.
  [[nodiscard]] std::uint32_t recoveredPrefixCount() const {
    return recovered_prefix_count_;
  }
  [[nodiscard]] bool prefixComplete() const {
    return recovered_prefix_count_ == watch_prefix_;
  }
  [[nodiscard]] bool isRecovered(std::uint32_t original) const {
    return recovered_[original];
  }

  /// Distinct coded blocks accepted before completion; the reception
  /// overhead of Figure 5-1 is symbolsUsed()/k - 1.
  [[nodiscard]] std::uint32_t symbolsUsed() const { return symbols_used_; }

  /// Sum of degrees of the coded blocks that resolved an original — the
  /// "edges used on decoding" metric of Figure 5-2.
  [[nodiscard]] std::uint64_t edgesUsed() const { return edges_used_; }

  /// Buffer XOR operations actually performed (lazy XOR does exactly
  /// degree-1 per resolving block and none for never-resolving blocks).
  [[nodiscard]] std::uint64_t xorOps() const { return xor_ops_; }

  /// Data mode only: the bytes of one recovered original; aborts if it
  /// is not recovered (or was already taken).
  [[nodiscard]] std::span<const std::uint8_t> block(
      std::uint32_t original) const;

  /// Data mode only: true iff decoding is complete, `expected` is
  /// k * block_size bytes and every recovered byte equals it.
  [[nodiscard]] bool dataEquals(std::span<const std::uint8_t> expected) const;

  /// Data mode only: concatenated original blocks; aborts if !complete().
  /// Each block's buffer is released as it is gathered.
  [[nodiscard]] std::vector<std::uint8_t> takeData();

  /// Data mode only: the first watch-prefix blocks, once prefixComplete().
  /// Composed codes extract the source symbols this way while padding
  /// intermediates may remain unrecovered.
  [[nodiscard]] std::vector<std::uint8_t> takePrefixData();

 private:
  bool ingest(std::uint32_t coded_id, std::span<const std::uint8_t> payload,
              Buffer* owned);
  /// Recovers the one open neighbor of `coded_id`: XORs the recovered
  /// neighbors into `payload` (data mode) and keeps it as the original.
  void resolve(std::uint32_t coded_id, Buffer payload);
  void drainRipple();
  [[nodiscard]] std::vector<std::uint8_t> gather(std::uint32_t count);

  const LtGraph* graph_;
  Bytes block_size_;
  std::vector<Buffer> blocks_;    // per original: recovered bytes (data mode)
  std::vector<Buffer> payloads_;  // per coded block: waiting arrivals
  std::vector<bool> received_;
  std::vector<bool> recovered_;
  std::vector<std::uint32_t> remaining_;   // unrecovered-neighbor counts
  std::vector<std::uint64_t> rev_offsets_;  // original -> coded CSR
  std::vector<std::uint32_t> rev_edges_;
  std::vector<std::uint32_t> ripple_;
  std::uint32_t watch_prefix_ = 0;
  std::uint32_t recovered_prefix_count_ = 0;
  std::uint32_t recovered_count_ = 0;
  std::uint32_t symbols_used_ = 0;
  std::uint64_t edges_used_ = 0;
  std::uint64_t xor_ops_ = 0;
};

}  // namespace robustore::coding
