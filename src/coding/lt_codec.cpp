#include "coding/lt_codec.hpp"

#include <algorithm>
#include <utility>

#include "coding/xor_kernel.hpp"
#include "common/expects.hpp"
#include "telemetry/host_profiler.hpp"

namespace robustore::coding {

LtEncoder::LtEncoder(const LtGraph& graph, std::span<const std::uint8_t> data,
                     Bytes block_size)
    : graph_(&graph), data_(data), block_size_(block_size) {
  ROBUSTORE_EXPECTS(block_size > 0, "encoder needs a positive block size");
  ROBUSTORE_EXPECTS(data.size() == graph.k() * block_size,
                    "data must be k blocks of block_size bytes");
}

void LtEncoder::encodeBlock(std::uint32_t index,
                            std::span<std::uint8_t> out) const {
  ROBUSTORE_EXPECTS(out.size() == block_size_, "bad encode output size");
  const auto nb = graph_->neighbors(index);
  ROBUSTORE_EXPECTS(!nb.empty(), "coded block with zero degree");
  const auto block = [&](std::uint32_t o) {
    return data_.subspan(o * block_size_, block_size_);
  };
  std::copy_n(block(nb[0]).data(), block_size_, out.data());
  std::size_t i = 1;
  for (; i + 1 < nb.size(); i += 2) {
    xorInto2(out, block(nb[i]), block(nb[i + 1]));
  }
  if (i < nb.size()) xorInto(out, block(nb[i]));
}

std::vector<std::uint8_t> LtEncoder::encodeAll() const {
  std::vector<std::uint8_t> out(graph_->n() * block_size_);
  for (std::uint32_t c = 0; c < graph_->n(); ++c) {
    encodeBlock(c, std::span(out).subspan(c * block_size_, block_size_));
  }
  return out;
}

LtDecoder::LtDecoder(const LtGraph& graph, Bytes block_size,
                     std::uint32_t watch_prefix)
    : graph_(&graph), block_size_(block_size) {
  const std::uint32_t k = graph.k();
  watch_prefix_ = std::min(watch_prefix, k);
  const std::uint32_t n = graph.n();
  if (block_size_ > 0) {
    blocks_.resize(k);
    payloads_.resize(n);
  }
  received_.assign(n, false);
  recovered_.assign(k, false);
  remaining_.assign(n, 0);

  // Reverse adjacency (original -> coded), CSR.
  std::vector<std::uint32_t> count(k, 0);
  for (std::uint32_t c = 0; c < n; ++c) {
    for (const auto o : graph.neighbors(c)) ++count[o];
  }
  rev_offsets_.assign(k + 1, 0);
  for (std::uint32_t o = 0; o < k; ++o) {
    rev_offsets_[o + 1] = rev_offsets_[o] + count[o];
  }
  rev_edges_.resize(graph.totalEdges());
  std::vector<std::uint64_t> cursor(rev_offsets_.begin(),
                                    rev_offsets_.end() - 1);
  for (std::uint32_t c = 0; c < n; ++c) {
    for (const auto o : graph.neighbors(c)) rev_edges_[cursor[o]++] = c;
  }
}

bool LtDecoder::addSymbol(std::uint32_t coded_id,
                          std::span<const std::uint8_t> payload) {
  return ingest(coded_id, payload, nullptr);
}

bool LtDecoder::addSymbol(std::uint32_t coded_id, Buffer&& payload) {
  return ingest(coded_id,
                std::span<const std::uint8_t>(
                    payload.get(), payload != nullptr ? block_size_ : 0),
                &payload);
}

bool LtDecoder::ingest(std::uint32_t coded_id,
                       std::span<const std::uint8_t> payload, Buffer* owned) {
  const telemetry::HostProfiler::Scope profile(
      telemetry::HostScope::kDecode);
  ROBUSTORE_EXPECTS(coded_id < graph_->n(), "coded id out of range");
  if (received_[coded_id] || complete()) return complete();
  if (block_size_ > 0) {
    ROBUSTORE_EXPECTS(payload.size() == block_size_,
                      "payload size must equal block size");
  }
  received_[coded_id] = true;
  ++symbols_used_;

  std::uint32_t rem = 0;
  for (const auto o : graph_->neighbors(coded_id)) {
    if (!recovered_[o]) ++rem;
  }
  remaining_[coded_id] = rem;
  if (rem == 0) return complete();
  // The bytes are kept from here on: adopt the caller's buffer when it
  // offered one, else copy once into an uninitialised pool buffer.
  Buffer kept;
  if (block_size_ > 0) {
    if (owned != nullptr) {
      kept = std::move(*owned);
    } else {
      kept = acquireBlock(block_size_);
      std::copy(payload.begin(), payload.end(), kept.get());
    }
  }
  if (rem == 1) {
    // Streaming fast path: the arrival resolves an original right now,
    // and the ripple it triggers runs before we return.
    resolve(coded_id, std::move(kept));
    drainRipple();
  } else if (block_size_ > 0) {
    payloads_[coded_id] = std::move(kept);  // waits for more arrivals
  }
  return complete();
}

void LtDecoder::drainRipple() {
  while (!ripple_.empty() && !complete()) {
    const std::uint32_t c = ripple_.back();
    ripple_.pop_back();
    if (remaining_[c] != 1) continue;
    resolve(c, block_size_ > 0 ? std::move(payloads_[c]) : Buffer{});
  }
}

void LtDecoder::resolve(std::uint32_t coded_id, Buffer payload) {
  const auto nb = graph_->neighbors(coded_id);
  std::uint32_t target = graph_->k();
  for (const auto o : nb) {
    if (!recovered_[o]) {
      target = o;
      break;
    }
  }
  ROBUSTORE_EXPECTS(target < graph_->k(), "resolve without an open neighbor");

  if (block_size_ > 0) {
    // Lazy XOR: fold every *recovered* neighbor into the resolving block's
    // own buffer, neighbor pairs in fused two-source passes; the buffer
    // then becomes the target's storage.
    const std::span<std::uint8_t> dst(payload.get(), block_size_);
    std::uint32_t pending = graph_->k();
    for (const auto o : nb) {
      if (o == target) continue;
      if (pending == graph_->k()) {
        pending = o;
        continue;
      }
      xorInto2(dst, block(pending), block(o));
      xor_ops_ += 2;
      pending = graph_->k();
    }
    if (pending != graph_->k()) {
      xorInto(dst, block(pending));
      ++xor_ops_;
    }
    blocks_[target] = std::move(payload);
  } else {
    xor_ops_ += nb.size() - 1;
  }
  edges_used_ += nb.size();
  remaining_[coded_id] = 0;
  recovered_[target] = true;
  ++recovered_count_;
  if (target < watch_prefix_) ++recovered_prefix_count_;

  for (std::uint64_t e = rev_offsets_[target]; e < rev_offsets_[target + 1];
       ++e) {
    const std::uint32_t c2 = rev_edges_[e];
    if (!received_[c2] || remaining_[c2] == 0) continue;
    if (--remaining_[c2] == 1) ripple_.push_back(c2);
  }
}

std::span<const std::uint8_t> LtDecoder::block(std::uint32_t original) const {
  ROBUSTORE_EXPECTS(original < graph_->k() && blocks_.size() == graph_->k() &&
                        blocks_[original] != nullptr,
                    "block of an original that is not held recovered");
  return {blocks_[original].get(), block_size_};
}

bool LtDecoder::dataEquals(std::span<const std::uint8_t> expected) const {
  ROBUSTORE_EXPECTS(block_size_ > 0, "dataEquals in ID-only mode");
  const std::uint32_t k = graph_->k();
  if (!complete() || expected.size() != std::size_t{k} * block_size_) {
    return false;
  }
  for (std::uint32_t o = 0; o < k; ++o) {
    const auto got = block(o);
    if (!std::equal(got.begin(), got.end(),
                    expected.begin() + std::size_t{o} * block_size_)) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> LtDecoder::gather(std::uint32_t count) {
  std::vector<std::uint8_t> out;
  out.reserve(std::size_t{count} * block_size_);
  for (std::uint32_t o = 0; o < count; ++o) {
    const auto bytes = block(o);
    out.insert(out.end(), bytes.begin(), bytes.end());
    blocks_[o].reset();
  }
  return out;
}

std::vector<std::uint8_t> LtDecoder::takeData() {
  ROBUSTORE_EXPECTS(complete(), "takeData before decoding completed");
  ROBUSTORE_EXPECTS(block_size_ > 0, "takeData in ID-only mode");
  return gather(graph_->k());
}

std::vector<std::uint8_t> LtDecoder::takePrefixData() {
  ROBUSTORE_EXPECTS(prefixComplete(),
                    "takePrefixData before the prefix was recovered");
  ROBUSTORE_EXPECTS(block_size_ > 0, "takePrefixData in ID-only mode");
  return gather(watch_prefix_);
}

}  // namespace robustore::coding
