#include "disk/layout.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace robustore::disk {

FileDiskLayout FileDiskLayout::generate(std::uint32_t num_blocks,
                                        Bytes block_bytes,
                                        const LayoutConfig& config, Rng& rng) {
  ROBUSTORE_EXPECTS(block_bytes > 0, "layout needs a positive block size");
  ROBUSTORE_EXPECTS(config.blocking_factor >= 1, "blocking factor >= 1");
  ROBUSTORE_EXPECTS(config.p_seq >= 0.0 && config.p_seq <= 1.0,
                    "p_seq must be a probability");

  FileDiskLayout layout;
  layout.config_ = config;
  layout.block_bytes_ = block_bytes;
  const Bytes run_bytes =
      static_cast<Bytes>(config.blocking_factor) * kSectorBytes;
  layout.runs_per_block_ =
      static_cast<std::uint32_t>((block_bytes + run_bytes - 1) / run_bytes);
  layout.zone_ = rng.uniform();
  layout.extendTo(num_blocks, rng);
  return layout;
}

void FileDiskLayout::extendTo(std::uint32_t num_blocks, Rng& rng) {
  const Bytes run_bytes =
      static_cast<Bytes>(config_.blocking_factor) * kSectorBytes;
  if (num_blocks <= num_blocks_) return;
  // Doubling keeps one-block-at-a-time growth (speculative writers, heal
  // writes) amortised; a bulk generate() reserves exactly.
  const std::size_t runs =
      static_cast<std::size_t>(num_blocks) * runs_per_block_;
  if (runs > extents_.capacity()) {
    extents_.reserve(std::max(runs, 2 * extents_.capacity()));
  }
  for (; num_blocks_ < num_blocks; ++num_blocks_) {
    Bytes remaining = block_bytes_;
    while (remaining > 0) {
      const Bytes len = std::min(remaining, run_bytes);
      const bool continues = started_ && rng.bernoulli(config_.p_seq);
      extents_.push_back(Extent{len, continues});
      started_ = true;
      remaining -= len;
    }
  }
}

std::span<const Extent> FileDiskLayout::blockExtents(std::uint32_t b) const {
  ROBUSTORE_EXPECTS(b < num_blocks_, "block index out of range");
  return std::span<const Extent>(extents_).subspan(
      static_cast<std::size_t>(b) * runs_per_block_, runs_per_block_);
}

}  // namespace robustore::disk
