#include "coding/tornado.hpp"

#include <algorithm>
#include <cmath>

#include "coding/xor_kernel.hpp"
#include "common/expects.hpp"

namespace robustore::coding {

TornadoCode::TornadoCode(std::uint32_t k, const TornadoParams& params,
                         Rng& rng)
    : k_(k) {
  ROBUSTORE_EXPECTS(k >= 1, "Tornado needs k >= 1");
  ROBUSTORE_EXPECTS(params.beta > 0 && params.beta < 1,
                    "beta must be in (0, 1)");
  ROBUSTORE_EXPECTS(params.left_degree >= 2, "left degree >= 2");

  // Cascade level sizes: K, floor(K*beta), ... until small enough for RS.
  level_sizes_.push_back(k);
  while (level_sizes_.back() > params.min_level_size) {
    const auto next = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::floor(level_sizes_.back() * params.beta)));
    level_sizes_.push_back(next);
  }

  level_offsets_.resize(level_sizes_.size());
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < level_sizes_.size(); ++i) {
    level_offsets_[i] = offset;
    offset += level_sizes_[i];
  }

  // Edges: each left node of level i draws `left_degree` distinct checks
  // in level i+1 (or every check when the level is tiny).
  edges_.resize(level_sizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < level_sizes_.size(); ++i) {
    const std::uint32_t checks = level_sizes_[i + 1];
    edges_[i].assign(checks, {});
    const std::uint32_t degree = std::min(params.left_degree, checks);
    std::vector<std::uint32_t> picks;
    for (std::uint32_t left = 0; left < level_sizes_[i]; ++left) {
      picks.clear();
      while (picks.size() < degree) {
        const auto c = static_cast<std::uint32_t>(rng.below(checks));
        if (std::find(picks.begin(), picks.end(), c) == picks.end()) {
          picks.push_back(c);
        }
      }
      for (const auto c : picks) edges_[i][c].push_back(left);
    }
    // A check with no edges would be a wasted block; give it one.
    for (std::uint32_t c = 0; c < checks; ++c) {
      if (edges_[i][c].empty()) {
        edges_[i][c].push_back(static_cast<std::uint32_t>(
            rng.below(level_sizes_[i])));
      }
    }
  }

  // Final optimal code A of rate 1 - beta over the deepest level.
  const std::uint32_t last = level_sizes_.back();
  rs_parities_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::llround(last * params.beta / (1.0 - params.beta))));
  ROBUSTORE_EXPECTS(last + rs_parities_ <= 256,
                    "deepest level too large for the RS tail; lower "
                    "min_level_size");
  rs_ = std::make_unique<ReedSolomon>(last, last + rs_parities_);

  n_ = offset + rs_parities_;
}

std::vector<std::uint8_t> TornadoCode::encodeAll(
    std::span<const std::uint8_t> data, Bytes block_size) const {
  ROBUSTORE_EXPECTS(data.size() == static_cast<std::size_t>(k_) * block_size,
                    "data must be k blocks");
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n_) * block_size,
                                0);
  const auto blockAt = [&](std::uint32_t index) {
    return std::span(out).subspan(
        static_cast<std::size_t>(index) * block_size, block_size);
  };
  std::copy(data.begin(), data.end(), out.begin());

  for (std::size_t i = 0; i + 1 < level_sizes_.size(); ++i) {
    for (std::uint32_t c = 0; c < level_sizes_[i + 1]; ++c) {
      auto dst = blockAt(level_offsets_[i + 1] + c);
      for (const auto left : edges_[i][c]) {
        xorInto(dst, blockAt(level_offsets_[i] + left));
      }
    }
  }

  // RS parities over the deepest level.
  const std::uint32_t last_offset = level_offsets_.back();
  const std::uint32_t last_size = level_sizes_.back();
  const auto last_level = std::span<const std::uint8_t>(out).subspan(
      static_cast<std::size_t>(last_offset) * block_size,
      static_cast<std::size_t>(last_size) * block_size);
  for (std::uint32_t p = 0; p < rs_parities_; ++p) {
    rs_->encodeBlock(last_size + p, last_level, block_size,
                     blockAt(n_ - rs_parities_ + p));
  }
  return out;
}

bool TornadoCode::solve(const std::vector<bool>& present,
                        std::vector<std::uint8_t>* data, Bytes block_size,
                        std::span<const std::uint8_t> received) const {
  ROBUSTORE_EXPECTS(present.size() == n_, "present mask must cover n blocks");
  std::vector<bool> known(present.begin(), present.end());
  if (data != nullptr) {
    ROBUSTORE_EXPECTS(received.size() ==
                          static_cast<std::size_t>(n_) * block_size,
                      "blocks buffer must hold n slots");
    data->assign(received.begin(), received.end());
  }
  const auto blockAt = [&](std::uint32_t index) {
    return std::span(*data).subspan(
        static_cast<std::size_t>(index) * block_size, block_size);
  };

  // --- Stage A: Reed-Solomon restores the deepest level -------------------
  const std::uint32_t last_size = level_sizes_.back();
  const std::uint32_t last_offset = level_offsets_.back();
  {
    std::vector<std::uint32_t> have;  // RS row of each received block
    for (std::uint32_t j = 0; j < last_size; ++j) {
      if (known[last_offset + j]) have.push_back(j);
    }
    const bool level_complete = have.size() == last_size;
    for (std::uint32_t p = 0; p < rs_parities_ && !level_complete; ++p) {
      if (known[n_ - rs_parities_ + p]) have.push_back(last_size + p);
    }
    if (have.size() < last_size) return false;
    if (!level_complete && data != nullptr) {
      have.resize(last_size);
      std::vector<std::uint8_t> rows;
      rows.reserve(static_cast<std::size_t>(last_size) * block_size);
      for (const auto row : have) {
        const std::uint32_t index = row < last_size
                                        ? last_offset + row
                                        : n_ - rs_parities_ + (row - last_size);
        const auto b = blockAt(index);
        rows.insert(rows.end(), b.begin(), b.end());
      }
      const auto decoded = rs_->decode(have, rows, block_size);
      std::copy(decoded.begin(), decoded.end(),
                data->begin() +
                    static_cast<std::size_t>(last_offset) * block_size);
    }
    for (std::uint32_t j = 0; j < last_size; ++j) {
      known[last_offset + j] = true;
    }
  }

  // --- Stage B: peel each level using the (now complete) level below ------
  for (std::size_t i = edges_.size(); i-- > 0;) {
    const std::uint32_t left_size = level_sizes_[i];
    const std::uint32_t left_offset = level_offsets_[i];
    const std::uint32_t check_offset = level_offsets_[i + 1];
    const auto& level_edges = edges_[i];

    // Reverse adjacency: left node -> checks referencing it.
    std::vector<std::vector<std::uint32_t>> checks_of(left_size);
    for (std::uint32_t c = 0; c < level_edges.size(); ++c) {
      for (const auto left : level_edges[c]) checks_of[left].push_back(c);
    }

    // Residuals: check value XOR all known lefts; count of unknown lefts.
    std::vector<std::uint32_t> unknown_count(level_edges.size(), 0);
    std::vector<std::uint8_t> residuals;
    if (data != nullptr) {
      residuals.resize(level_edges.size() * block_size);
    }
    std::vector<std::uint32_t> ripple;
    for (std::uint32_t c = 0; c < level_edges.size(); ++c) {
      std::span<std::uint8_t> res;
      if (data != nullptr) {
        res = std::span(residuals).subspan(
            static_cast<std::size_t>(c) * block_size, block_size);
        const auto check_block = blockAt(check_offset + c);
        std::copy(check_block.begin(), check_block.end(), res.begin());
      }
      for (const auto left : level_edges[c]) {
        if (known[left_offset + left]) {
          if (data != nullptr) xorInto(res, blockAt(left_offset + left));
        } else {
          ++unknown_count[c];
        }
      }
      if (unknown_count[c] == 1) ripple.push_back(c);
    }

    std::uint32_t unknown_lefts = 0;
    for (std::uint32_t left = 0; left < left_size; ++left) {
      if (!known[left_offset + left]) ++unknown_lefts;
    }

    while (!ripple.empty() && unknown_lefts > 0) {
      const std::uint32_t c = ripple.back();
      ripple.pop_back();
      if (unknown_count[c] != 1) continue;
      // Find the single unknown left.
      std::uint32_t target = left_size;
      for (const auto left : level_edges[c]) {
        if (!known[left_offset + left]) {
          target = left;
          break;
        }
      }
      if (target == left_size) continue;
      if (data != nullptr) {
        const auto res = std::span<const std::uint8_t>(residuals).subspan(
            static_cast<std::size_t>(c) * block_size, block_size);
        const auto dst = blockAt(left_offset + target);
        std::copy(res.begin(), res.end(), dst.begin());
      }
      known[left_offset + target] = true;
      --unknown_lefts;
      unknown_count[c] = 0;
      for (const auto c2 : checks_of[target]) {
        if (unknown_count[c2] == 0) continue;
        if (data != nullptr) {
          xorInto(std::span(residuals).subspan(
                      static_cast<std::size_t>(c2) * block_size, block_size),
                  blockAt(left_offset + target));
        }
        if (--unknown_count[c2] == 1) ripple.push_back(c2);
      }
    }
    if (unknown_lefts > 0) return false;
  }
  return true;
}

std::vector<std::uint8_t> TornadoCode::decode(
    const std::vector<bool>& present, std::span<const std::uint8_t> blocks,
    Bytes block_size) const {
  std::vector<std::uint8_t> buffer;
  if (!solve(present, &buffer, block_size, blocks)) return {};
  buffer.resize(static_cast<std::size_t>(k_) * block_size);
  return buffer;
}

bool TornadoCode::decodable(const std::vector<bool>& present) const {
  return solve(present, nullptr, 0, {});
}

}  // namespace robustore::coding
