#pragma once

#include <memory>

#include "client/scheme.hpp"
#include "coding/lt_codec.hpp"
#include "coding/lt_graph.hpp"
#include "coding/raptor.hpp"

namespace robustore::client {

/// RobuSTore (Chapter 4): LT-coded symmetric redundancy plus speculative
/// access.
///
/// Reads request every stored coded block from every disk in a single
/// round and feed arrivals to the real LT peeling decoder (ID mode); the
/// access completes the moment decoding does, and the remaining requests
/// are cancelled. Writes are speculative and rateless: the client keeps a
/// small per-disk pipeline of fresh coded blocks and stops once N blocks
/// have committed *and* the committed set is decodable — faster disks
/// absorb more blocks, producing unbalanced striping.
class RobuStoreScheme final : public Scheme {
 public:
  /// Optional real-byte data plane for the read path. When attached, every
  /// simulated transfer completion also carries the block's actual bytes
  /// (synthesized from the original data through the file's LT graph —
  /// exactly what the disk would have returned), and the client decodes
  /// them. Simulated timing, metrics, and BENCH output are unchanged —
  /// the data plane only adds host-side coding work — which makes the
  /// host-profile decode cost of the two arrival policies directly
  /// comparable:
  ///  * streaming (default): each arrival feeds the data-mode peeling
  ///    decoder immediately, so decode work interleaves with (and hides
  ///    inside) transfer completions;
  ///  * batch: arrivals are buffered and the whole decode runs when the
  ///    last needed block lands — the decode-tail-on-the-critical-path
  ///    behavior the paper's §5.2 bottleneck describes.
  /// LT codec only (Raptor's layered encode has no per-block synthesis).
  struct DataPlaneConfig {
    /// Original file bytes, k * block_bytes; null detaches the data plane.
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    bool streaming = true;
  };

  /// What the data plane did during the last completed read.
  struct DataPlaneReport {
    /// Decoded output compared equal to the original bytes.
    bool verified = false;
    /// Distinct coded blocks fed to the data decoder.
    std::uint32_t symbols_fed = 0;
    /// Buffer XOR operations the data decode performed.
    std::uint64_t xor_ops = 0;
  };

  explicit RobuStoreScheme(Cluster& cluster,
                           coding::LtParams lt = coding::LtParams{},
                           std::uint32_t write_pipeline_depth = 2,
                           CodecKind codec = CodecKind::kLt)
      : Scheme(cluster),
        lt_(lt),
        write_pipeline_depth_(write_pipeline_depth),
        codec_(codec) {}

  /// Applies to subsequent reads; clears any previous report.
  void attachDataPlane(DataPlaneConfig config);
  /// Report of the last read that ran the data plane to completion, or
  /// nullopt (no data plane, or the read failed before decoding).
  [[nodiscard]] const std::optional<DataPlaneReport>& dataPlaneReport() const {
    return data_plane_report_;
  }

  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kRobuStore;
  }
  [[nodiscard]] CodecKind codec() const { return codec_; }

  [[nodiscard]] StoredFile planFile(const AccessConfig& config,
                                    std::span<const std::uint32_t> disks,
                                    const LayoutPolicy& policy,
                                    Rng& rng) override;

  /// Live decoder counters: the read decoder when a read is (or was last)
  /// in flight, else the write path's committed-set decoder.
  [[nodiscard]] std::optional<DecoderProgress> decoderProgress()
      const override;

 protected:
  void startRead(Session& session, StoredFile& file,
                 const AccessConfig& config) override;
  void startWrite(Session& session, const AccessConfig& config,
                  std::span<const std::uint32_t> disks,
                  const LayoutPolicy& policy, Rng& rng,
                  StoredFile& out) override;

 private:
  struct ReadState;
  struct WriteState;

  /// Builds the codec structure for a file of `k` originals with `n`
  /// coded blocks, stored into `file`.
  void attachCodec(StoredFile& file, std::uint32_t k, std::uint32_t n,
                   Rng& rng) const;
  void submitNextWrite(Session& session, StoredFile& out, std::uint32_t p);
  /// Feeds one arrival to the read decoder (and, batch data plane only,
  /// buffers the synthesized payload). Returns decode completion.
  bool feedRead(ReadState& state, std::uint32_t coded, Bytes block_bytes);
  /// Runs the batch decode if one is pending, verifies the decoded bytes
  /// against the original, and publishes the report.
  void finishDataPlane(ReadState& state, const StoredFile& file);
  /// Heal-on-read: re-encodes every lost coded block recorded in `state`
  /// onto a live placement (the decode succeeded, so the client holds
  /// everything it needs). No-op when nothing was lost.
  void healLostBlocks(ReadState& state, StoredFile& file);

  coding::LtParams lt_;
  std::uint32_t write_pipeline_depth_;
  CodecKind codec_;
  DataPlaneConfig data_plane_;
  std::optional<DataPlaneReport> data_plane_report_;
  std::shared_ptr<ReadState> read_state_;
  std::shared_ptr<WriteState> write_state_;
};

}  // namespace robustore::client
