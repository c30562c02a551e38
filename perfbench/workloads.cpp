#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "client/cluster.hpp"
#include "client/robustore_scheme.hpp"
#include "coding/lt_codec.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/multi_client.hpp"
#include "measure.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using robustore::Bytes;
using robustore::kKiB;
using robustore::kMilliseconds;
using robustore::Rng;
using robustore::client::SchemeKind;

constexpr SchemeKind kSchemes[] = {SchemeKind::kRaid0, SchemeKind::kRRaidS,
                                   SchemeKind::kRRaidA,
                                   SchemeKind::kRobuStore};

/// Operation indices at and above this mark are set-up warm-ups; timed
/// operations never reach it, so warm-ups never replay a timed input.
constexpr std::uint64_t kWarmupOp = 1ULL << 30;

/// The warm-up operation of `cell` in set-up repeat `repeat`.
std::uint64_t warmupOp(std::uint32_t repeat, std::uint32_t cells,
                       std::uint32_t cell) {
  return kWarmupOp + static_cast<std::uint64_t>(repeat) * cells + cell;
}

/// Per-operation seed: distinct, well-mixed streams for nearby (seed, op).
std::uint64_t opSeed(std::uint64_t seed, std::uint64_t op) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + op + 1);
  return rng();
}

void digestAccess(Digest& d, const robustore::metrics::AccessMetrics& m) {
  d.add(m.latency);
  d.add(static_cast<std::uint64_t>(m.data_bytes));
  d.add(static_cast<std::uint64_t>(m.network_bytes));
  d.add(static_cast<std::uint64_t>(m.blocks_received));
  d.add(static_cast<std::uint64_t>(m.blocks_original));
  d.add(static_cast<std::uint64_t>(m.cache_hits));
  d.add(m.complete);
  d.add(static_cast<std::uint64_t>(m.failures_survived));
  d.add(static_cast<std::uint64_t>(m.reissued_requests));
  d.add(m.time_lost_to_failures);
}

/// The plausibility every completed access must satisfy, whatever the
/// scheme: it finished in positive finite simulated time, moved at least
/// its own data, and accepted at least K blocks.
bool accessPlausible(const robustore::metrics::AccessMetrics& m,
                     const robustore::client::AccessConfig& access) {
  return m.complete && std::isfinite(m.latency) && m.latency > 0.0 &&
         m.data_bytes == access.dataBytes() && m.blocks_original == access.k &&
         m.blocks_received >= access.k && m.network_bytes >= m.data_bytes;
}

void recordAccess(OpRecord& r, const robustore::metrics::AccessMetrics& m,
                  const robustore::client::AccessConfig& access) {
  r.accesses = 1;
  r.failed = accessPlausible(m, access) ? 0 : 1;
  r.verified_bytes = r.failed == 0 ? static_cast<double>(m.data_bytes) : 0.0;
  r.blocks_received = m.blocks_received;
  r.blocks_original = m.blocks_original;
  r.network_bytes = static_cast<double>(m.network_bytes);
  r.data_bytes = static_cast<double>(m.data_bytes);
  r.reissues = m.reissued_requests;
  r.block_bytes = access.block_bytes;
}

// --- paper_mix ------------------------------------------------------------

/// §6.2.5 baseline trials, write and read alternating, round-robin over
/// the four schemes: fig 6-26's read config and fig 6-29's write config
/// (homogeneous fast layout, heterogeneous Poisson background redrawn per
/// access, 1 GB = 1024 x 1 MB at 3x redundancy over 64 of 128 disks).
class PaperMix final : public Workload {
 public:
  explicit PaperMix(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint32_t cells() const override { return 8; }
  [[nodiscard]] std::uint32_t checkOps() const override { return 16; }
  [[nodiscard]] ProbeKind speedProbe() const override {
    return ProbeKind::kAlloc;
  }

  void setup(std::uint32_t repeat) override {
    read_ = config(robustore::core::ExperimentConfig::Op::kRead);
    write_ = config(robustore::core::ExperimentConfig::Op::kWrite);
    for (std::uint32_t cell = 0; cell < cells(); ++cell) {
      (void)run(warmupOp(repeat, cells(), cell), nullptr);
    }
  }

  [[nodiscard]] OpRecord run(std::uint64_t op, SpanRecorder* spans) override {
    OpRecord r;
    r.cell = static_cast<std::uint32_t>(op % cells());
    r.scheme = kSchemes[r.cell / 2];
    r.write = r.cell % 2 == 1;
    const auto& cfg = r.write ? write_ : read_;
    const SpanRecorder::Scope root(spans, "op.paper_mix", op);
    robustore::metrics::AccessMetrics m;
    const double t0 = nowSeconds();
    {
      const SpanRecorder::Scope call(spans, "core.runTrial", op);
      m = robustore::core::ExperimentRunner::runTrial(
          cfg, r.scheme, static_cast<std::uint32_t>(op));
    }
    r.wall_s = nowSeconds() - t0;
    recordAccess(r, m, cfg.access);
    Digest d;
    digestAccess(d, m);
    r.digest = d.value();
    return r;
  }

 private:
  [[nodiscard]] robustore::core::ExperimentConfig config(
      robustore::core::ExperimentConfig::Op op) const {
    robustore::core::ExperimentConfig cfg;  // §6.2.5 defaults
    cfg.layout.heterogeneous = false;
    cfg.background =
        robustore::core::ExperimentConfig::Background::kHeterogeneous;
    cfg.op = op;
    cfg.seed = seed_;
    return cfg;
  }

  std::uint64_t seed_;
  robustore::core::ExperimentConfig read_;
  robustore::core::ExperimentConfig write_;
};

// --- campaign -------------------------------------------------------------

/// One multi-client campaign per scheme, round-robin: 1000 clients on 128
/// disks, each reading small files back to back (a client's next access
/// waits for its previous one).
class Campaign final : public Workload {
 public:
  static constexpr std::uint32_t kClients = 1000;
  static constexpr std::uint32_t kAccessesPerClient = 10;

  explicit Campaign(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint32_t cells() const override { return 4; }
  [[nodiscard]] std::uint32_t checkOps() const override { return 4; }
  [[nodiscard]] ProbeKind speedProbe() const override {
    return ProbeKind::kAlloc;
  }

  void setup(std::uint32_t repeat) override {
    base_ = robustore::core::MultiClientConfig{};
    base_.num_servers = 16;
    base_.disks_per_server = 8;
    base_.num_clients = kClients;
    base_.disks_per_access = 8;
    base_.access.k = 4;
    base_.access.block_bytes = 64 * kKiB;
    base_.access.redundancy = 2.0;
    base_.layout.heterogeneous = false;
    base_.accesses_per_client = kAccessesPerClient;
    base_.stagger = 1 * kMilliseconds;
    base_.think_time = 0.0;
    base_.fast_selection = true;
    // Warm-up: one short campaign (one access per client) per scheme.
    for (std::uint32_t cell = 0; cell < cells(); ++cell) {
      auto cfg = configFor(warmupOp(repeat, cells(), cell));
      cfg.accesses_per_client = 1;
      (void)robustore::core::MultiClientExperiment(cfg).run();
    }
  }

  [[nodiscard]] OpRecord run(std::uint64_t op, SpanRecorder* spans) override {
    OpRecord r;
    r.cell = static_cast<std::uint32_t>(op % cells());
    r.scheme = kSchemes[r.cell];
    const auto cfg = configFor(op);
    const SpanRecorder::Scope root(spans, "op.campaign", op);
    robustore::core::MultiClientResult res;
    const double t0 = nowSeconds();
    {
      const SpanRecorder::Scope call(spans, "core.MultiClientExperiment.run",
                                     op);
      robustore::core::MultiClientExperiment experiment(cfg);
      res = experiment.run();
    }
    r.wall_s = nowSeconds() - t0;

    const std::uint64_t attempted =
        static_cast<std::uint64_t>(kClients) * kAccessesPerClient;
    const auto& agg = res.accesses;
    const auto done = static_cast<double>(agg.trials());
    // Every client must finish its whole campaign: an access the deadline
    // caught counts as failed.
    r.accesses = attempted;
    r.failed = attempted - std::min(attempted, res.accesses_completed);
    r.verified_bytes = static_cast<double>(attempted - r.failed) *
                       static_cast<double>(cfg.access.dataBytes());
    r.has_engine_stats = true;
    r.events_fired = res.events_fired;
    r.events_scheduled = res.events_scheduled;
    r.peak_live_events = res.peak_live_events;
    r.blocks_original = done * cfg.access.k;
    r.blocks_received =
        done * cfg.access.k * (1.0 + agg.meanReceptionOverhead());
    r.data_bytes = done * static_cast<double>(cfg.access.dataBytes());
    r.network_bytes = r.data_bytes * (1.0 + agg.meanIoOverhead());
    r.reissues = done * agg.meanReissuedRequests();
    r.block_bytes = cfg.access.block_bytes;

    Digest d;
    d.add(static_cast<std::uint64_t>(agg.trials()));
    d.add(agg.meanLatency());
    d.add(agg.latencyStdDev());
    d.add(agg.meanBandwidthMBps());
    d.add(agg.meanIoOverhead());
    d.add(agg.meanReceptionOverhead());
    d.add(res.makespan);
    d.add(res.system_throughput_mbps);
    d.add(res.accesses_completed);
    d.add(static_cast<std::uint64_t>(res.clients_completed));
    d.add(res.events_scheduled);
    d.add(res.events_fired);
    d.add(static_cast<std::uint64_t>(res.peak_live_events));
    d.add(res.drained_at);
    r.digest = d.value();
    return r;
  }

 private:
  [[nodiscard]] robustore::core::MultiClientConfig configFor(
      std::uint64_t op) const {
    auto cfg = base_;
    cfg.scheme = kSchemes[op % cells()];
    cfg.seed = opSeed(seed_, op);
    return cfg;
  }

  std::uint64_t seed_;
  robustore::core::MultiClientConfig base_;
};

// --- dataplane ------------------------------------------------------------

/// Streaming real-bytes RobuSTore reads of 256 MB (K = 1024 x 256 KiB) on
/// a fresh 4x4-disk cluster each: every simulated arrival carries the
/// block's bytes, the client peels them, and the decode is compared with
/// the source.
class Dataplane final : public Workload {
 public:
  static constexpr std::uint32_t kDisks = 16;

  explicit Dataplane(std::uint64_t seed) : seed_(seed) {
    access_.block_bytes = 256 * kKiB;
    access_.k = 1024;
    access_.redundancy = 2.0;
    // Input generation, outside set-up: the file's original bytes.
    auto data = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(access_.dataBytes()));
    Rng rng(seed_ ^ 0xda7aULL);
    for (std::size_t i = 0; i < data->size(); i += sizeof(std::uint64_t)) {
      const std::uint64_t word = rng();
      std::memcpy(data->data() + i, &word, sizeof word);
    }
    data_ = std::move(data);
  }

  [[nodiscard]] std::uint32_t cells() const override { return 1; }
  [[nodiscard]] std::uint32_t checkOps() const override { return 2; }
  [[nodiscard]] ProbeKind speedProbe() const override {
    return ProbeKind::kMemory;
  }

  void setup(std::uint32_t repeat) override {
    (void)run(warmupOp(repeat, cells(), 0), nullptr);
  }

  [[nodiscard]] OpRecord run(std::uint64_t op, SpanRecorder* spans) override {
    OpRecord r;
    r.scheme = SchemeKind::kRobuStore;
    const SpanRecorder::Scope root(spans, "op.dataplane", op);
    Rng rng(opSeed(seed_, op));
    robustore::metrics::AccessMetrics m;
    std::optional<robustore::client::RobuStoreScheme::DataPlaneReport> report;
    robustore::sim::EngineStats stats;
    const double t0 = nowSeconds();
    {
      robustore::sim::Engine engine;
      robustore::client::ClusterConfig cc;
      cc.num_servers = 4;
      cc.server.disks_per_server = 4;
      std::optional<robustore::client::Cluster> cluster;
      {
        const SpanRecorder::Scope call(spans, "client.Cluster", op);
        cluster.emplace(engine, cc, rng.fork(1));
      }
      robustore::client::RobuStoreScheme scheme(*cluster);
      std::vector<std::uint32_t> disks;
      {
        const SpanRecorder::Scope call(spans, "client.selectDisks", op);
        disks = cluster->selectDisks(kDisks, rng);
      }
      robustore::client::LayoutPolicy policy;
      policy.heterogeneous = true;
      robustore::client::StoredFile file;
      {
        const SpanRecorder::Scope call(spans, "client.planFile", op);
        file = scheme.planFile(access_, disks, policy, rng);
      }
      {
        const SpanRecorder::Scope call(spans, "client.attachDataPlane", op);
        scheme.attachDataPlane({.data = data_, .streaming = true});
      }
      {
        const SpanRecorder::Scope call(spans, "client.read", op);
        m = scheme.read(file, access_);
      }
      report = scheme.dataPlaneReport();
      stats = engine.stats();
      if (op == 0) graph_ = file.lt_graph;
    }
    r.wall_s = nowSeconds() - t0;

    recordAccess(r, m, access_);
    const bool verified = report.has_value() && report->verified &&
                          report->symbols_fed >= access_.k;
    if (!verified) {
      r.failed = 1;
      r.verified_bytes = 0.0;
    }
    r.has_engine_stats = true;
    r.events_fired = stats.fired;
    r.events_scheduled = stats.scheduled;
    r.peak_live_events = stats.peak_live;
    if (report.has_value()) {
      r.xor_ops = report->xor_ops;
      r.symbols_fed = report->symbols_fed;
    }

    Digest d;
    digestAccess(d, m);
    d.add(verified);
    d.add(r.xor_ops);
    d.add(r.symbols_fed);
    d.add(stats.scheduled);
    d.add(stats.fired);
    d.add(static_cast<std::uint64_t>(stats.peak_live));
    r.digest = d.value();
    return r;
  }

  /// Encodes coded blocks of operation 0's graph one by one from the
  /// source bytes and feeds them, in a seeded arrival order, to a fresh
  /// data-mode decoder until it completes; then compares the decode.
  [[nodiscard]] std::optional<CodecRates> codecRates(
      SpanRecorder* spans) override {
    if (graph_ == nullptr) return CodecRates{};  // op 0 has not run
    const robustore::coding::LtGraph& graph = *graph_;
    const Bytes block = access_.block_bytes;
    const robustore::coding::LtEncoder encoder(graph, *data_, block);
    robustore::coding::LtDecoder decoder(graph, block);
    Rng rng(opSeed(seed_, 0) ^ 0xc0deULL);
    const std::vector<std::uint32_t> order = rng.permutation(graph.n());
    std::vector<std::uint8_t> buffer(block);
    double encode_s = 0.0;
    double decode_s = 0.0;
    std::uint64_t encoded = 0;
    {
      const SpanRecorder::Scope root(spans, "op.codec", 0);
      for (const std::uint32_t coded : order) {
        double t = nowSeconds();
        {
          const SpanRecorder::Scope call(spans, "coding.encodeBlock", 0);
          encoder.encodeBlock(coded, buffer);
        }
        encode_s += nowSeconds() - t;
        ++encoded;
        t = nowSeconds();
        bool done = false;
        {
          const SpanRecorder::Scope call(spans, "coding.addSymbol", 0);
          done = decoder.addSymbol(coded, buffer);
        }
        decode_s += nowSeconds() - t;
        if (done) break;
      }
    }
    CodecRates rates;
    rates.verified = decoder.complete() && decoder.takeData() == *data_;
    const double mb = 1.0 / (1024.0 * 1024.0);
    if (encode_s > 0.0) {
      rates.encode_mb_per_s =
          static_cast<double>(encoded * block) * mb / encode_s;
    }
    if (decode_s > 0.0) {
      rates.decode_mb_per_s =
          static_cast<double>(access_.dataBytes()) * mb / decode_s;
    }
    return rates;
  }

 private:
  std::uint64_t seed_;
  robustore::client::AccessConfig access_;
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
  std::shared_ptr<const robustore::coding::LtGraph> graph_;
};

}  // namespace

std::optional<WorkloadKind> parseWorkload(std::string_view name) {
  if (name == "paper_mix") return WorkloadKind::kPaperMix;
  if (name == "campaign") return WorkloadKind::kCampaign;
  if (name == "dataplane") return WorkloadKind::kDataplane;
  return std::nullopt;
}

const char* workloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPaperMix:
      return "paper_mix";
    case WorkloadKind::kCampaign:
      return "campaign";
    case WorkloadKind::kDataplane:
      return "dataplane";
  }
  return "?";
}

std::unique_ptr<Workload> makeWorkload(WorkloadKind kind, std::uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kPaperMix:
      return std::make_unique<PaperMix>(seed);
    case WorkloadKind::kCampaign:
      return std::make_unique<Campaign>(seed);
    case WorkloadKind::kDataplane:
      return std::make_unique<Dataplane>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
