#include "core/multi_client.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/expects.hpp"
#include "core/stack.hpp"

namespace robustore::core {
namespace {

/// What one simulated client keeps across its accesses; the loop owns
/// the sessions.
struct ClientState {
  std::unique_ptr<client::Scheme> scheme;
  disk::StreamId stream = 0;  // one disk-side identity for every access
  client::StoredFile file;
  std::vector<std::uint32_t> disks;
  /// Persistent candidate pool for fast_selection (incremental
  /// Fisher–Yates): the prefix examined last access is re-randomised
  /// lazily, so selection cost is O(candidates examined), not O(disks).
  std::vector<std::uint32_t> pool;
  Rng rng{0};
};

}  // namespace

MultiClientExperiment::MultiClientExperiment(MultiClientConfig config)
    : config_(std::move(config)) {
  ROBUSTORE_EXPECTS(config_.num_clients >= 1, "need at least one client");
  ROBUSTORE_EXPECTS(config_.accesses_per_client >= 1,
                    "need at least one access per client");
  ROBUSTORE_EXPECTS(
      config_.disks_per_access <=
          config_.num_servers * config_.disks_per_server,
      "cannot access more disks than the cluster has");
}

MultiClientResult MultiClientExperiment::run() {
  client::ClusterConfig cc;
  cc.num_servers = config_.num_servers;
  cc.server.disks_per_server = config_.disks_per_server;
  cc.server.disk_params = config_.disk_params;
  cc.server.round_trip = config_.round_trip;
  cc.server.nic_bandwidth = config_.nic_bandwidth;
  cc.server.admission = config_.admission;
  Stack stack(cc, Rng(config_.seed ^ salt::kMultiClientCluster));
  sim::Engine& engine = stack.engine();
  client::Cluster& cluster = stack.cluster();
  stack.observe(/*trace=*/false, config_.flight, config_.flight_config);

  const bool campaign = config_.accesses_per_client > 1;
  std::vector<ClientState> clients(config_.num_clients);
  MultiClientResult result;
  std::uint32_t completed = 0;  // clients done with their full campaign
  SimTime first_start = -1.0;
  SimTime last_finish = 0.0;

  const auto release = [&](const ClientState& c) {
    for (const auto d : c.disks) {
      cluster.serverOfDisk(d).admission().release(cluster.localDiskIndex(d),
                                                  c.stream);
    }
  };
  // Admission-aware disk selection: walk a random candidate order and
  // keep disks whose server grants the stream, up to the target count.
  // The legacy path materialises a full permutation per attempt (the
  // historical stream, kept bit-identical); fast_selection draws the
  // same walk incrementally, one Fisher–Yates step per candidate.
  const auto selectAdmitted = [&](ClientState& c) {
    c.disks.clear();
    const std::uint32_t n = cluster.numDisks();
    const auto admitTry = [&](std::uint32_t d) {
      auto& srv = cluster.serverOfDisk(d);
      if (srv.admission().admit(cluster.localDiskIndex(d), c.stream)) {
        c.disks.push_back(d);
      }
    };
    if (config_.fast_selection) {
      if (c.pool.size() != n) {
        c.pool.resize(n);
        std::iota(c.pool.begin(), c.pool.end(), 0U);
      }
      for (std::uint32_t j = 0;
           j < n && c.disks.size() < config_.disks_per_access; ++j) {
        const auto pick =
            j + static_cast<std::uint32_t>(c.rng.below(n - j));
        std::swap(c.pool[j], c.pool[pick]);
        admitTry(c.pool[j]);
      }
    } else {
      auto order = c.rng.permutation(n);
      for (const auto d : order) {
        if (c.disks.size() >= config_.disks_per_access) break;
        admitTry(d);
      }
    }
    if (c.disks.size() < config_.disks_per_access) {
      // Partial grant: keep what we have only if it is a usable majority;
      // otherwise release and retry later (first come, first admitted).
      if (c.disks.size() * 2 < config_.disks_per_access) {
        release(c);
        c.disks.clear();
        return false;
      }
    }
    return true;
  };

  ClientLoop loop{
      .access = config_.access,
      .accesses = config_.accesses_per_client,
      .stagger = config_.stagger,
      .think = config_.think_time,
      .retry = config_.retry_interval,
      .deadline = config_.run_deadline > 0.0 ? config_.run_deadline
                                             : config_.access.timeout,
  };
  for (std::uint32_t i = 0; i < config_.num_clients; ++i) {
    ClientState& c = clients[i];
    c.scheme = client::makeScheme(config_.scheme, cluster,
                                  coding::LtParams{});
    c.rng = streamRng(config_.seed, i);
    c.stream = cluster.nextStream();
    loop.schemes.push_back(c.scheme.get());
  }
  loop.begin = [&](const ClientLoop::Access& a) -> client::StoredFile* {
    ClientState& c = clients[a.client];
    a.session.stream = c.stream;
    if (!selectAdmitted(c)) return nullptr;
    if (first_start < 0) first_start = engine.now();
    c.file = c.scheme->planFile(config_.access, c.disks, config_.layout,
                                c.rng);
    return &c.file;
  };
  loop.end = [&](const ClientLoop::Access& a) {
    release(clients[a.client]);
    last_finish = engine.now();
    if (a.session.complete) ++result.accesses_completed;
    if (a.index + 1 == config_.accesses_per_client &&
        ++completed == config_.num_clients) {
      engine.stop();
    }
    // The legacy single access is collected after the global drain (byte
    // accounting fully settled); a campaign folds each access in now.
    if (campaign) loop.collect(a);
    return campaign;
  };
  loop.collect = [&](const ClientLoop::Access& a) {
    // A campaign counts the accesses that ran; the legacy single access
    // keeps counting a client that never got to start as incomplete.
    if (campaign && !a.begun) return;
    result.accesses.add(clients[a.client].scheme->collect(
        a.session, config_.access.dataBytes(), config_.access.k));
  };
  loop.run(stack);
  result.drained_at = engine.now();

  result.clients_completed = completed;
  // Throughput accounting: the legacy path historically counted every
  // finished client (complete or failed) — preserved bit-for-bit; the
  // campaign path counts genuinely completed accesses.
  const std::uint64_t delivered =
      campaign ? result.accesses_completed : completed;
  result.makespan =
      delivered > 0 && first_start >= 0 ? last_finish - first_start : 0.0;
  if (result.makespan > 0) {
    result.system_throughput_mbps =
        toMBps(static_cast<Bytes>(delivered) * config_.access.dataBytes(),
               result.makespan);
  }
  for (std::uint32_t s = 0; s < cluster.numServers(); ++s) {
    result.admission_refusals += cluster.server(s).admission().refused();
  }
  const auto& stats = engine.stats();
  result.events_scheduled = stats.scheduled;
  result.events_fired = stats.fired;
  result.peak_live_events = stats.peak_live;
  if (config_.flight) {
    result.flight =
        std::make_shared<trace::FlightRecorder>(std::move(*stack.recorder()));
  }
  return result;
}

}  // namespace robustore::core
