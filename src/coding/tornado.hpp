#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coding/reed_solomon.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace robustore::coding {

/// Tornado code (§2.2.2, Luby et al. 1997): a cascade of sparse bipartite
/// XOR graphs closed off by a small optimal code.
///
/// Level 0 holds the K message blocks. Each level i feeds a check level
/// of size floor(size_i * beta); the cascade stops once a level is small
/// enough for Reed-Solomon to take over as the erasure-correcting code A
/// of rate 1 - beta. The code word is systematic: the original blocks
/// followed by every check level and the RS parities.
///
/// Decoding runs back-to-front: RS restores any missing deepest-level
/// checks, then each level's checks peel erased blocks of the level
/// above ("use c1 and x1, x2 to solve x3", Figure 2-3).
struct TornadoParams {
  /// Per-level rate loss; overall rate is 1 - beta.
  double beta = 0.5;
  /// Edges per *left* (message-side) node in each bipartite level.
  std::uint32_t left_degree = 3;
  /// Cascade stops when a level has at most this many blocks.
  std::uint32_t min_level_size = 16;
};

class TornadoCode {
 public:
  TornadoCode(std::uint32_t k, const TornadoParams& params, Rng& rng);

  [[nodiscard]] std::uint32_t k() const { return k_; }
  /// Total code-word blocks (message + all checks + RS parities).
  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] double rate() const {
    return static_cast<double>(k_) / static_cast<double>(n_);
  }
  [[nodiscard]] std::uint32_t levelSize(std::size_t level) const {
    return level_sizes_[level];
  }

  /// Encodes the K message blocks into the full n-block code word.
  [[nodiscard]] std::vector<std::uint8_t> encodeAll(
      std::span<const std::uint8_t> data, Bytes block_size) const;

  /// Attempts reconstruction from the received subset: `present[i]` says
  /// whether code-word block i was received, and `blocks` holds all n
  /// block slots (absent entries may contain garbage). On success the
  /// first K blocks of the returned buffer are the message; returns an
  /// empty vector when the erasure pattern defeats the cascade.
  [[nodiscard]] std::vector<std::uint8_t> decode(
      const std::vector<bool>& present, std::span<const std::uint8_t> blocks,
      Bytes block_size) const;

  /// Erasure-pattern feasibility check without touching payloads (the
  /// simulator-facing ID mode).
  [[nodiscard]] bool decodable(const std::vector<bool>& present) const;

 private:
  /// Shared peeling/RS schedule over block *indices*. When `data` is
  /// non-null the XOR/RS payload work runs alongside. Returns success.
  bool solve(const std::vector<bool>& present,
             std::vector<std::uint8_t>* data, Bytes block_size,
             std::span<const std::uint8_t> received) const;

  std::uint32_t k_ = 0;
  std::uint32_t n_ = 0;
  std::vector<std::uint32_t> level_sizes_;   // level 0 = K message blocks
  std::vector<std::uint32_t> level_offsets_; // block index of each level
  /// edges_[i][c] = left-node indices (within level i) feeding check c of
  /// level i+1.
  std::vector<std::vector<std::vector<std::uint32_t>>> edges_;
  /// Final optimal code over the last cascade level.
  std::uint32_t rs_parities_ = 0;
  std::unique_ptr<ReedSolomon> rs_;
};

}  // namespace robustore::coding
