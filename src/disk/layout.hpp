#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace robustore::disk {

/// In-disk layout knobs, exactly the two DiskSim parameters the paper
/// sweeps in Table 6-1: the *blocking factor* (average contiguous run
/// length in sectors) and the *probability of sequential access* (chance
/// that one run physically continues the previous one).
struct LayoutConfig {
  std::uint32_t blocking_factor = 128;  // sectors per run
  double p_seq = 0.0;                   // P(run continues previous run)
};

/// One physically contiguous run of a file on a disk.
struct Extent {
  Bytes bytes = 0;
  /// True when this run immediately follows the previous run of the same
  /// file on the platter. The disk still re-positions if another stream's
  /// request was served in between (§2.1.1: interleaved streams incur
  /// extra seeks).
  bool continues_previous = false;
};

/// The on-disk layout of one file's data on one disk: the run list, the
/// per-block grouping used by block-granular requests, and the media zone
/// the file landed in. Every block has the same run count,
/// ceil(block_bytes / run_bytes), so the runs live in one flat array and
/// block `b` is the b-th slice of it.
class FileDiskLayout {
 public:
  /// Lays out `num_blocks` blocks of `block_bytes` each.
  static FileDiskLayout generate(std::uint32_t num_blocks, Bytes block_bytes,
                                 const LayoutConfig& config, Rng& rng);

  /// Appends blocks until the layout holds `num_blocks` of them. Runs are
  /// drawn from the same distribution as generate(); speculative writers
  /// use this because the final per-disk block count is only known when
  /// enough commits have landed (§5.3.2).
  void extendTo(std::uint32_t num_blocks, Rng& rng);

  [[nodiscard]] std::uint32_t numBlocks() const { return num_blocks_; }
  [[nodiscard]] Bytes blockBytes() const { return block_bytes_; }

  /// Extents making up stored block `b` (indices into this layout's run
  /// sequence are implicit: blocks are stored in order). The view is
  /// invalidated by extendTo(); callers copy what they keep.
  [[nodiscard]] std::span<const Extent> blockExtents(std::uint32_t b) const;

  /// Zone position in [0, 1]; 0 = innermost (slowest), 1 = outermost.
  [[nodiscard]] double zone() const { return zone_; }

  [[nodiscard]] const LayoutConfig& config() const { return config_; }

 private:
  LayoutConfig config_;
  Bytes block_bytes_ = 0;
  double zone_ = 0.5;
  bool started_ = false;  // first run of the file is always positioned
  std::uint32_t runs_per_block_ = 0;
  std::uint32_t num_blocks_ = 0;
  std::vector<Extent> extents_;  // num_blocks_ * runs_per_block_ runs
};

}  // namespace robustore::disk
