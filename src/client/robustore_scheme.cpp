#include "client/robustore_scheme.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "coding/block_pool.hpp"
#include "common/expects.hpp"

namespace robustore::client {
namespace {

/// Codec-agnostic incremental decoder: the schemes only need "feed a
/// received coded id, tell me when reconstruction completes" — plus the
/// progress counters the telemetry sampler plots.
class DecoderAdapter {
 public:
  virtual ~DecoderAdapter() = default;
  virtual bool addSymbol(std::uint32_t id) = 0;
  [[nodiscard]] virtual bool complete() const = 0;
  /// Distinct coded symbols accepted so far.
  [[nodiscard]] virtual std::uint32_t received() const = 0;
  /// Originals the reconstruction needs (K).
  [[nodiscard]] virtual std::uint32_t needed() const = 0;
  /// Originals recovered so far.
  [[nodiscard]] virtual std::uint32_t ready() const = 0;
};

class LtAdapter final : public DecoderAdapter {
 public:
  explicit LtAdapter(const coding::LtGraph& graph)
      : k_(graph.k()), decoder_(graph) {}
  bool addSymbol(std::uint32_t id) override { return decoder_.addSymbol(id); }
  [[nodiscard]] bool complete() const override { return decoder_.complete(); }
  [[nodiscard]] std::uint32_t received() const override {
    return decoder_.symbolsUsed();
  }
  [[nodiscard]] std::uint32_t needed() const override { return k_; }
  [[nodiscard]] std::uint32_t ready() const override {
    return decoder_.recoveredCount();
  }

 private:
  std::uint32_t k_;
  coding::LtDecoder decoder_;
};

/// Streaming data plane: the same peeling schedule as LtAdapter, run over
/// real bytes. Each simulated arrival synthesizes the block's payload into
/// an uninitialised pool buffer (encodeBlock writes every byte) and hands
/// it to the data-mode decoder immediately, which keeps it as the waiting
/// block or the original it resolves, interleaving all decode work with
/// transfer completions. Completion is decided by the identical peeling
/// process, so swapping this in changes no simulated behavior.
class LtStreamAdapter final : public DecoderAdapter {
 public:
  LtStreamAdapter(const coding::LtGraph& graph,
                  const coding::LtEncoder& encoder, Bytes block_bytes)
      : k_(graph.k()),
        block_bytes_(block_bytes),
        encoder_(&encoder),
        decoder_(graph, block_bytes) {}
  bool addSymbol(std::uint32_t id) override {
    auto arrival = coding::acquireBlock(block_bytes_);
    encoder_->encodeBlock(id, std::span(arrival.get(), block_bytes_));
    return decoder_.addSymbol(id, std::move(arrival));
  }
  [[nodiscard]] bool complete() const override { return decoder_.complete(); }
  [[nodiscard]] std::uint32_t received() const override {
    return decoder_.symbolsUsed();
  }
  [[nodiscard]] std::uint32_t needed() const override { return k_; }
  [[nodiscard]] std::uint32_t ready() const override {
    return decoder_.recoveredCount();
  }
  [[nodiscard]] coding::LtDecoder& decoder() { return decoder_; }

 private:
  std::uint32_t k_;
  Bytes block_bytes_;
  const coding::LtEncoder* encoder_;
  coding::LtDecoder decoder_;
};

class RaptorAdapter final : public DecoderAdapter {
 public:
  explicit RaptorAdapter(const coding::RaptorCode& code)
      : k_(code.k()), decoder_(code) {}
  bool addSymbol(std::uint32_t id) override { return decoder_.addSymbol(id); }
  [[nodiscard]] bool complete() const override { return decoder_.complete(); }
  [[nodiscard]] std::uint32_t received() const override {
    return decoder_.symbolsUsed();
  }
  [[nodiscard]] std::uint32_t needed() const override { return k_; }
  [[nodiscard]] std::uint32_t ready() const override {
    return decoder_.recoveredSourceCount();
  }

 private:
  std::uint32_t k_;
  coding::RaptorCode::Decoder decoder_;
};

std::unique_ptr<DecoderAdapter> makeDecoder(const StoredFile& file) {
  if (file.raptor) return std::make_unique<RaptorAdapter>(*file.raptor);
  ROBUSTORE_EXPECTS(file.lt_graph != nullptr,
                    "RobuSTore file without a coding structure");
  return std::make_unique<LtAdapter>(*file.lt_graph);
}

std::uint32_t codedStreamLength(const StoredFile& file) {
  return file.raptor ? file.raptor->n() : file.lt_graph->n();
}

}  // namespace

struct RobuStoreScheme::ReadState {
  std::unique_ptr<DecoderAdapter> decoder;
  /// Data plane (null/empty when detached). `data` keeps the original
  /// bytes alive for the encoder; `arrivals` is the batch-mode buffer of
  /// (coded id, synthesized payload) in arrival order.
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  std::unique_ptr<coding::LtEncoder> encoder;
  std::vector<std::pair<std::uint32_t, coding::LtDecoder::Buffer>> arrivals;
  bool batch_data_plane = false;
  /// Heal-on-read ledger: (placement, coded id) pairs whose retries were
  /// exhausted. Re-encoded onto healthy disks if the decode still wins.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lost;
};

struct RobuStoreScheme::WriteState {
  std::unique_ptr<DecoderAdapter> committed;  // decodability of commits
  std::uint32_t stream_n = 0;
  std::uint32_t target_n = 0;
  std::uint32_t next_coded_id = 0;
  std::uint32_t committed_count = 0;
  std::uint32_t outstanding = 0;
  std::vector<std::uint32_t> submitted_per_disk;
  /// Placements whose disk failed mid-write: their pipeline slots are
  /// re-routed to surviving placements (coded blocks are placement-
  /// agnostic, §5.2.3).
  std::vector<char> dead;
  Rng layout_rng{0};
};

std::optional<Scheme::DecoderProgress> RobuStoreScheme::decoderProgress()
    const {
  const DecoderAdapter* decoder = nullptr;
  if (read_state_ != nullptr && read_state_->decoder != nullptr) {
    decoder = read_state_->decoder.get();
  } else if (write_state_ != nullptr && write_state_->committed != nullptr) {
    decoder = write_state_->committed.get();
  }
  if (decoder == nullptr) return std::nullopt;
  DecoderProgress p;
  p.received = decoder->received();
  p.needed = decoder->needed();
  p.ready = decoder->ready();
  p.buffered = p.received > p.ready ? p.received - p.ready : 0;
  return p;
}

void RobuStoreScheme::attachCodec(StoredFile& file, std::uint32_t k,
                                  std::uint32_t n, Rng& rng) const {
  if (codec_ == CodecKind::kRaptor) {
    file.raptor = std::make_shared<const coding::RaptorCode>(
        k, n, coding::RaptorParams{}, rng);
  } else {
    file.lt_graph = std::make_shared<const coding::LtGraph>(
        coding::LtGraph::generate(k, n, lt_, rng));
  }
}

StoredFile RobuStoreScheme::planFile(const AccessConfig& config,
                                     std::span<const std::uint32_t> disks,
                                     const LayoutPolicy& policy, Rng& rng) {
  StoredFile file;
  file.file_id = cluster().nextFileId();
  file.block_bytes = config.block_bytes;
  file.k = config.k;
  const std::uint32_t n = config.codedBlockCount();
  attachCodec(file, config.k, n, rng);

  const auto h = static_cast<std::uint32_t>(disks.size());
  file.placements.resize(h);
  for (std::uint32_t d = 0; d < h; ++d) {
    auto& p = file.placements[d];
    p.global_disk = disks[d];
    for (std::uint32_t c = d; c < n; c += h) p.stored.push_back(c);
    p.layout = disk::FileDiskLayout::generate(
        static_cast<std::uint32_t>(p.stored.size()), config.block_bytes,
        policy.draw(rng), rng);
  }
  return file;
}

void RobuStoreScheme::attachDataPlane(DataPlaneConfig config) {
  data_plane_ = std::move(config);
  data_plane_report_.reset();
}

bool RobuStoreScheme::feedRead(ReadState& state, std::uint32_t coded,
                               Bytes block_bytes) {
  if (state.batch_data_plane && !state.decoder->complete()) {
    auto arrival = coding::acquireBlock(block_bytes);
    state.encoder->encodeBlock(coded, std::span(arrival.get(), block_bytes));
    state.arrivals.emplace_back(coded, std::move(arrival));
  }
  return state.decoder->addSymbol(coded);
}

void RobuStoreScheme::finishDataPlane(ReadState& state,
                                      const StoredFile& file) {
  DataPlaneReport report;
  if (state.batch_data_plane) {
    // The deferred decode: every buffered payload goes through the
    // peeling decoder now, after the last needed transfer has landed.
    coding::LtDecoder decoder(*file.lt_graph, file.block_bytes);
    for (auto& [id, payload] : state.arrivals) {
      if (decoder.addSymbol(id, std::move(payload))) break;
    }
    // Same graph, same arrival order as the ID-mode completion driver,
    // so the data decode finishes on the same symbol.
    if (!decoder.complete()) return;
    report.symbols_fed = decoder.symbolsUsed();
    report.xor_ops = decoder.xorOps();
    report.verified = decoder.dataEquals(*state.data);
  } else {
    auto& adapter = static_cast<LtStreamAdapter&>(*state.decoder);
    report.symbols_fed = adapter.received();
    report.xor_ops = adapter.decoder().xorOps();
    report.verified = adapter.decoder().dataEquals(*state.data);
  }
  data_plane_report_ = report;
}

void RobuStoreScheme::startRead(Session& session, StoredFile& file,
                                const AccessConfig& config) {
  read_state_ = std::make_shared<ReadState>();
  if (data_plane_.data != nullptr) {
    ROBUSTORE_EXPECTS(file.lt_graph != nullptr,
                      "data plane requires the LT codec");
    ROBUSTORE_EXPECTS(data_plane_.data->size() == file.dataBytes(),
                      "data plane bytes must be k * block_bytes");
    data_plane_report_.reset();
    read_state_->data = data_plane_.data;
    read_state_->encoder = std::make_unique<coding::LtEncoder>(
        *file.lt_graph, std::span(*read_state_->data), file.block_bytes);
    if (data_plane_.streaming) {
      read_state_->decoder = std::make_unique<LtStreamAdapter>(
          *file.lt_graph, *read_state_->encoder, file.block_bytes);
    } else {
      read_state_->decoder = std::make_unique<LtAdapter>(*file.lt_graph);
      read_state_->batch_data_plane = true;
    }
  } else {
    read_state_->decoder = makeDecoder(file);
  }
  auto state = read_state_;
  const SimTime decode_tail =
      config.decode_rate > 0
          ? static_cast<double>(config.block_bytes) / config.decode_rate
          : 0.0;
  for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
    const auto& placement = file.placements[p];
    for (std::uint32_t pos = 0; pos < placement.stored.size(); ++pos) {
      const auto coded = static_cast<std::uint32_t>(placement.stored[pos]);
      // Default on_lost is none: coded blocks are interchangeable, so a
      // block whose retries are exhausted is simply never decoded from.
      // If the losses leave the decoder short, the base fail-fast rule
      // ends the access the moment the last live request settles. With
      // heal-on-read the loss is additionally remembered so a winning
      // decode can re-encode it onto a healthy disk.
      TrackedRead::LostFn on_lost;
      if (config.heal_on_read) {
        on_lost = [state, p, coded] { state->lost.emplace_back(p, coded); };
      }
      issueTrackedRead(session, file, p, pos, /*force_position=*/false,
                       config,
                       [this, state, &session, &file, coded,
                        decode_tail](bool cache_hit) {
                         ++session.blocks_received;
                         if (cache_hit) ++session.cache_hits;
                         if (feedRead(*state, coded, file.block_bytes)) {
                           if (state->data != nullptr &&
                               !data_plane_report_.has_value()) {
                             finishDataPlane(*state, file);
                           }
                           healLostBlocks(*state, file);
                           // Decoding is pipelined with I/O; only the last
                           // block's XOR work extends the critical path
                           // (§6.2.5).
                           session.extra_latency = decode_tail;
                           finish(session);
                         }
                       },
                       std::move(on_lost));
    }
  }
}

void RobuStoreScheme::healLostBlocks(ReadState& state, StoredFile& file) {
  if (state.lost.empty()) return;
  // The decode succeeded, so the client can re-encode any coded block.
  // Each lost one goes to the next live placement after its old home
  // (round-robin keeps the healed copies spread out).
  const auto h = static_cast<std::uint32_t>(file.placements.size());
  for (const auto& [origin, coded] : state.lost) {
    for (std::uint32_t step = 1; step <= h; ++step) {
      const std::uint32_t target = (origin + step) % h;
      if (cluster().disk(file.placements[target].global_disk).failed()) {
        continue;
      }
      issueHealWrite(file, target, coded);
      break;
    }
  }
  state.lost.clear();
}

void RobuStoreScheme::startWrite(Session& session, const AccessConfig& config,
                                 std::span<const std::uint32_t> disks,
                                 const LayoutPolicy& policy, Rng& rng,
                                 StoredFile& out) {
  const auto h = static_cast<std::uint32_t>(disks.size());
  const std::uint32_t target_n = config.codedBlockCount();
  // The rateless stream must outlast the target: decodability can require
  // more than N commits (notably at low redundancy), and the per-disk
  // pipelines overshoot by up to `depth` blocks each.
  const std::uint32_t stream_n =
      std::max(target_n,
               static_cast<std::uint32_t>(1.6 * static_cast<double>(config.k)))
      + 2 * h * write_pipeline_depth_ + 64;
  attachCodec(out, config.k, stream_n, rng);

  out.placements.resize(h);
  for (std::uint32_t d = 0; d < h; ++d) {
    auto& p = out.placements[d];
    p.global_disk = disks[d];
    p.layout = disk::FileDiskLayout::generate(0, config.block_bytes,
                                              policy.draw(rng), rng);
  }

  write_state_ = std::make_shared<WriteState>();
  write_state_->committed = makeDecoder(out);
  write_state_->stream_n = codedStreamLength(out);
  write_state_->target_n = target_n;
  write_state_->submitted_per_disk.assign(h, 0);
  write_state_->dead.assign(h, 0);
  write_state_->layout_rng = rng.fork(0x77);
  for (std::uint32_t d = 0; d < h; ++d) {
    for (std::uint32_t w = 0; w < write_pipeline_depth_; ++w) {
      submitNextWrite(session, out, d);
    }
  }
}

void RobuStoreScheme::submitNextWrite(Session& session, StoredFile& out,
                                      std::uint32_t p) {
  auto state = write_state_;
  // Route around dead placements: a rateless stream does not care where a
  // coded block lands, so a failed disk's pipeline slot moves to the next
  // surviving one.
  const auto h = static_cast<std::uint32_t>(out.placements.size());
  std::uint32_t probed = 0;
  while (probed < h && state->dead[p]) {
    p = (p + 1) % h;
    ++probed;
  }
  if (probed == h) {
    // Every placement is dead; the write can never commit enough blocks.
    if (state->outstanding == 0) fail(session);
    return;
  }
  if (state->next_coded_id >= state->stream_n) {
    // Stream exhausted (cannot happen with the sizing above, but guard
    // against livelock): give up once nothing is in flight any more.
    if (state->outstanding == 0 && !session.complete) fail(session);
    return;
  }
  const std::uint32_t coded = state->next_coded_id++;
  ++state->outstanding;
  auto& placement = out.placements[p];
  const std::uint32_t pos = state->submitted_per_disk[p]++;
  placement.layout.extendTo(pos + 1, state->layout_rng);

  noteServerUsed(session, placement.global_disk);
  server::StorageServer& srv = cluster().serverOfDisk(placement.global_disk);
  server::StorageServer::BlockWrite req;
  req.stream = session.stream;
  req.cache_key = out.cacheKey(p, pos);
  req.disk_index = cluster().localDiskIndex(placement.global_disk);
  req.layout = &placement.layout;
  req.layout_block = pos;
  srv.writeBlock(
      req,
      [this, state, &session, &out, p, coded] {
        if (session.complete || session.failed) return;
        --state->outstanding;
        ++session.blocks_received;
        ++state->committed_count;
        out.placements[p].stored.push_back(coded);
        state->committed->addSymbol(coded);
        // §4.3.2: stop once enough blocks committed; the writer
        // additionally guarantees that what it leaves behind is decodable
        // (§5.2.3(1)).
        if (state->committed_count >= state->target_n &&
            state->committed->complete()) {
          finish(session);
          return;
        }
        submitNextWrite(session, out, p);
      },
      [this, state, &session, &out, p] {
        // The commit died with the disk. Mark the placement dead and
        // re-route this pipeline slot: a fresh coded id goes to the next
        // surviving placement (the lost id is never re-sent — rateless
        // streams replace, they don't repair).
        if (session.complete || session.failed) return;
        ++session.failures_observed;
        state->dead[p] = 1;
        --state->outstanding;
        ++session.reissued_requests;
        if (auto* t = tracer(); t != nullptr) {
          t->instant("client.write_reroute", engine().now(), session.stream,
                     trace::kClientTrack, out.placements[p].global_disk);
        }
        submitNextWrite(session, out, p);
      });
}

}  // namespace robustore::client
