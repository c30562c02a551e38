#include "core/multi_client.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/expects.hpp"
#include "core/stack.hpp"

namespace robustore::core {
namespace {

/// State of one simulated client for the lifetime of the experiment.
///
/// The session lives behind a pointer because in-flight callbacks bind
/// the session by reference: when a campaign moves a client to its next
/// access, the finished access's session is *retired* (kept alive until
/// its last in-service disk request settles against it) rather than
/// overwritten in place.
struct ClientState {
  std::unique_ptr<client::Scheme> scheme;
  std::unique_ptr<client::Scheme::Session> session =
      std::make_unique<client::Scheme::Session>();
  client::StoredFile file;
  std::vector<std::uint32_t> disks;
  /// Persistent candidate pool for fast_selection (incremental
  /// Fisher–Yates): the prefix examined last access is re-randomised
  /// lazily, so selection cost is O(candidates examined), not O(disks).
  std::vector<std::uint32_t> pool;
  Rng rng{0};
  std::uint32_t retries = 0;
  std::uint32_t accesses_done = 0;
  bool started = false;
  /// Current session's metrics already folded into the result (campaign
  /// mode collects at completion; the drain pass skips collected ones).
  bool collected = false;
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
  /// Finished campaign sessions with disk work still in service, paired
  /// with the scheme that drives them (needed to abort their leftover
  /// speculative tails at the deadline).
  std::vector<
      std::pair<client::Scheme*, std::unique_ptr<client::Scheme::Session>>>
      retired;
  MultiClientResult result;
  std::uint32_t completed = 0;  // clients done with their full campaign
  bool experiment_over = false;
  SimTime first_start = -1.0;
  SimTime last_finish = 0.0;

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
      if (srv.admission().admit(cluster.localDiskIndex(d),
                                c.session->stream)) {
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
        for (const auto d : c.disks) {
          cluster.serverOfDisk(d).admission().release(
              cluster.localDiskIndex(d), c.session->stream);
        }
        c.disks.clear();
        return false;
      }
    }
    return true;
  };

  std::function<void(std::uint32_t)> startClient =
      [&](std::uint32_t index) {
        if (experiment_over) return;  // drained: stop the retry loop
        ClientState& c = clients[index];
        if (!selectAdmitted(c)) {
          ++c.retries;
          engine.schedule(config_.retry_interval,
                          [&, index] { startClient(index); });
          return;
        }
        c.started = true;
        if (first_start < 0) first_start = engine.now();
        c.file = c.scheme->planFile(config_.access, c.disks, config_.layout,
                                    c.rng);
        c.session->on_complete = [&, index] {
          ClientState& done = clients[index];
          done.scheme->cancelOutstanding(*done.session);
          for (const auto d : done.disks) {
            cluster.serverOfDisk(d).admission().release(
                cluster.localDiskIndex(d), done.session->stream);
          }
          last_finish = engine.now();
          ++done.accesses_done;
          if (done.session->complete) ++result.accesses_completed;
          if (!campaign) {
            // Legacy shape: one access per client, metrics collected
            // after the global drain (byte accounting fully settled).
            if (++completed == config_.num_clients) engine.stop();
            return;
          }
          // Campaign: fold this access in now (its speculative tail was
          // just cancelled, so its I/O ledger is final up to requests
          // already in service) and move the client on.
          result.accesses.add(done.scheme->collect(
              *done.session, config_.access.dataBytes(), config_.access.k));
          done.collected = true;
          if (done.accesses_done < config_.accesses_per_client) {
            if (experiment_over) return;  // deadline hit: no new work
            const auto stream = done.session->stream;
            // Retire the finished session: in-service disk requests from
            // this access still hold it by reference and settle against
            // it (as pure byte accounting) when they complete. Drained
            // retirees are reaped here, so the list stays proportional
            // to in-flight work, not to campaign length.
            std::erase_if(retired, [](const auto& s) {
              return s.second->live_requests == 0;
            });
            retired.emplace_back(done.scheme.get(), std::move(done.session));
            done.session = std::make_unique<client::Scheme::Session>();
            done.session->stream = stream;  // same disk-side identity
            done.collected = false;
            engine.schedule(config_.think_time,
                            [&, index] { startClient(index); });
          } else if (++completed == config_.num_clients) {
            engine.stop();
          }
        };
        c.scheme->beginRead(*c.session, c.file, config_.access);
      };

  // One batched start storm instead of num_clients heap inserts; at
  // t = 0, delay == absolute time, so the event order (time, seq) is
  // identical to the historical per-client scheduleAt calls.
  std::vector<sim::Engine::BatchEvent> storm;
  storm.reserve(config_.num_clients);
  for (std::uint32_t i = 0; i < config_.num_clients; ++i) {
    ClientState& c = clients[i];
    c.scheme = client::makeScheme(config_.scheme, cluster,
                                  coding::LtParams{});
    c.rng = streamRng(config_.seed, i);
    c.session->stream = cluster.nextStream();
    storm.push_back({config_.stagger * i, [&, i] { startClient(i); }});
  }
  engine.scheduleBatch(storm);

  const SimTime deadline = config_.run_deadline > 0.0
                               ? config_.run_deadline
                               : config_.access.timeout;
  // Aborting finished/retired sessions only releases their leftover
  // speculative-tail events.
  stack.quiesce(deadline, [&] {
    experiment_over = true;
    for (auto& c : clients) {
      if (c.started) c.scheme->abortRead(*c.session);
    }
    for (auto& [scheme, session] : retired) scheme->abortRead(*session);
  });
  result.drained_at = engine.now();

  result.clients_completed = completed;
  for (auto& c : clients) {
    if (campaign && c.collected) continue;  // folded in at completion
    result.accesses.add(c.scheme->collect(
        *c.session, config_.access.dataBytes(), config_.access.k));
  }
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
