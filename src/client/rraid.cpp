#include "client/rraid.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "coding/replication.hpp"
#include "common/expects.hpp"

namespace robustore::client {

struct RRaidScheme::SpecReadState {
  coding::ReplicationTracker tracker;
  /// Heal-on-read ledger: (placement, block) pairs whose retries were
  /// exhausted. Replicated onto live disks if the access still completes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lost;
  explicit SpecReadState(std::uint32_t k) : tracker(k) {}
};

struct RRaidScheme::AdaptiveReadState {
  coding::ReplicationTracker tracker;
  /// Per placement: stored_pos -> block id (what this disk stores).
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> pos_to_block;
  /// Per placement: block id -> stored_pos (membership lookup for steals).
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> block_to_pos;
  /// Per placement: requests pending delivery, by stored position. The
  /// handles stop resolving once a request settles, so entries left
  /// listed when an access ends (a disk holding several copies of one
  /// block, a timeout) cancel nothing.
  std::vector<std::map<std::uint32_t, Scheme::TrackedHandle>> pending;
  /// Per placement: stored position of the last request issued, for
  /// physical-contiguity tracking (-1 = none).
  std::vector<std::int64_t> last_requested;
  /// Placements whose disk exhausted a block's retries: unresponsive;
  /// never re-dispatch there.
  std::vector<char> dead;
  /// Heal-on-read ledger, as in SpecReadState.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lost;

  explicit AdaptiveReadState(std::uint32_t k) : tracker(k) {}
};

struct RRaidScheme::WriteState {
  std::uint32_t acks = 0;
  std::uint32_t total = 0;
};

StoredFile RRaidScheme::planFile(const AccessConfig& config,
                                 std::span<const std::uint32_t> disks,
                                 const LayoutPolicy& policy, Rng& rng) {
  StoredFile file;
  file.file_id = cluster().nextFileId();
  file.block_bytes = config.block_bytes;
  file.k = config.k;
  const auto h = static_cast<std::uint32_t>(disks.size());
  const coding::RotatedReplicaLayout rotated{config.k, config.replicaCount(),
                                             h};
  file.placements.resize(h);
  for (std::uint32_t d = 0; d < h; ++d) {
    auto& p = file.placements[d];
    p.global_disk = disks[d];
    for (const auto& [block, replica] : rotated.onDisk(d)) {
      (void)replica;
      p.stored.push_back(block);
    }
    p.layout = disk::FileDiskLayout::generate(
        static_cast<std::uint32_t>(p.stored.size()), config.block_bytes,
        policy.draw(rng), rng);
  }
  return file;
}

void RRaidScheme::startRead(Session& session, StoredFile& file,
                            const AccessConfig& config) {
  if (adaptive_) {
    startAdaptiveRead(session, file, config);
  } else {
    startSpeculativeRead(session, file, config);
  }
}

void RRaidScheme::startSpeculativeRead(Session& session, StoredFile& file,
                                       const AccessConfig& config) {
  spec_state_ = std::make_shared<SpecReadState>(file.k);
  auto state = spec_state_;
  for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
    const auto& placement = file.placements[p];
    for (std::uint32_t pos = 0; pos < placement.stored.size(); ++pos) {
      const auto block = static_cast<std::uint32_t>(placement.stored[pos]);
      // A lost block normally needs no handler: its rotated copies are
      // already in flight, and the base fail-fast rule catches the case
      // where every copy of some block died. Heal-on-read additionally
      // remembers the loss so a completing access restores the replica.
      TrackedRead::LostFn on_lost;
      if (config.heal_on_read) {
        on_lost = [state, p, block] { state->lost.emplace_back(p, block); };
      }
      issueTrackedRead(session, file, p, pos, /*force_position=*/false,
                       config,
                       [this, state, &session, &file, block](bool cache_hit) {
                         ++session.blocks_received;
                         if (cache_hit) ++session.cache_hits;
                         if (state->tracker.addCopy(block)) {
                           healLostReplicas(file, state->lost);
                           state->lost.clear();
                           finish(session);
                         }
                       },
                       std::move(on_lost));
    }
  }
}

void RRaidScheme::adaptiveRequest(Session& session, StoredFile& file,
                                  const AccessConfig& config, std::uint32_t p,
                                  std::uint32_t stored_pos) {
  auto state = adaptive_state_;
  const auto block = state->pos_to_block[p].at(stored_pos);
  const bool force_position =
      state->last_requested[p] != static_cast<std::int64_t>(stored_pos) - 1;
  state->last_requested[p] = stored_pos;
  auto handle = issueTrackedRead(
      session, file, p, stored_pos, force_position, config,
      [this, state, &session, &file, &config, p, stored_pos,
       block](bool cache_hit) {
        ++session.blocks_received;
        if (cache_hit) ++session.cache_hits;
        state->pending[p].erase(stored_pos);
        if (state->tracker.addCopy(block)) {
          healLostReplicas(file, state->lost);
          state->lost.clear();
          finish(session);
          return;
        }
        if (state->pending[p].empty()) adaptiveSteal(session, file, config, p);
      },
      [this, state, &session, &file, &config, p, stored_pos, block] {
        // This placement burned through every retry for the block: treat
        // the disk as unresponsive and re-dispatch to another replica.
        state->dead[p] = 1;
        state->pending[p].erase(stored_pos);
        if (config.heal_on_read) state->lost.emplace_back(p, block);
        if (state->tracker.isCovered(block)) return;
        const auto h = static_cast<std::uint32_t>(file.placements.size());
        for (std::uint32_t step = 1; step < h; ++step) {
          const std::uint32_t q = (p + step) % h;
          if (state->dead[q]) continue;
          const auto it = state->block_to_pos[q].find(block);
          if (it == state->block_to_pos[q].end()) continue;
          if (state->pending[q].contains(it->second)) return;  // in flight
          if (auto* t = tracer(); t != nullptr) {
            t->instant("client.redispatch", engine().now(), session.stream,
                       trace::kClientTrack, file.placements[q].global_disk,
                       block);
          }
          adaptiveRequest(session, file, config, q, it->second);
          return;
        }
        fail(session);  // no live replica of this block remains
      });
  state->pending[p].emplace(stored_pos, std::move(handle));
}

void RRaidScheme::startAdaptiveRead(Session& session, StoredFile& file,
                                    const AccessConfig& config) {
  adaptive_state_ = std::make_shared<AdaptiveReadState>(file.k);
  auto state = adaptive_state_;
  const auto h = static_cast<std::uint32_t>(file.placements.size());
  state->pos_to_block.resize(h);
  state->block_to_pos.resize(h);
  state->pending.resize(h);
  state->last_requested.assign(h, -1);
  state->dead.assign(h, 0);
  for (std::uint32_t p = 0; p < h; ++p) {
    const auto& stored = file.placements[p].stored;
    for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
      const auto block = static_cast<std::uint32_t>(stored[pos]);
      state->pos_to_block[p].emplace(pos, block);
      // Keep the first (replica-0) position for steal targeting.
      state->block_to_pos[p].emplace(block, pos);
    }
  }
  // Round one: replica 0 only, i.e. block b from disk (b mod H).
  for (std::uint32_t p = 0; p < h; ++p) {
    const auto& stored = file.placements[p].stored;
    for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
      const auto block = static_cast<std::uint32_t>(stored[pos]);
      if (block % h == p) adaptiveRequest(session, file, config, p, pos);
    }
  }
}

void RRaidScheme::adaptiveSteal(Session& session, StoredFile& file,
                                const AccessConfig& config,
                                std::uint32_t idle_placement) {
  auto state = adaptive_state_;
  const auto h = static_cast<std::uint32_t>(file.placements.size());
  const auto& my_blocks = state->block_to_pos[idle_placement];

  // Pick the victim with the most pending blocks the idle disk can serve.
  std::uint32_t victim = h;
  std::size_t victim_count = 0;
  for (std::uint32_t q = 0; q < h; ++q) {
    if (q == idle_placement) continue;
    std::size_t count = 0;
    for (const auto& [pos, handle] : state->pending[q]) {
      (void)handle;
      const auto block = state->pos_to_block[q].at(pos);
      if (!state->tracker.isCovered(block) && my_blocks.contains(block)) {
        ++count;
      }
    }
    if (count > victim_count) {
      victim_count = count;
      victim = q;
    }
  }
  if (victim == h || victim_count < 2) return;  // nothing worth stealing
  if (auto* t = tracer(); t != nullptr) {
    t->instant("client.steal", engine().now(), session.stream,
               trace::kClientTrack,
               file.placements[idle_placement].global_disk, victim_count / 2);
  }

  // Collect the steal candidates in the victim's stored order and take
  // the second half (the blocks it would reach last).
  std::vector<std::uint32_t> candidates;
  candidates.reserve(victim_count);
  for (const auto& [pos, handle] : state->pending[victim]) {
    (void)handle;
    const auto block = state->pos_to_block[victim].at(pos);
    if (!state->tracker.isCovered(block) && my_blocks.contains(block)) {
      candidates.push_back(pos);
    }
  }
  const std::size_t steal = candidates.size() / 2;
  for (std::size_t i = candidates.size() - steal; i < candidates.size(); ++i) {
    const std::uint32_t victim_pos = candidates[i];
    const auto block = state->pos_to_block[victim].at(victim_pos);
    auto it = state->pending[victim].find(victim_pos);
    if (it != state->pending[victim].end()) {
      cancelTracked(session, it->second);
      state->pending[victim].erase(it);
    }
    adaptiveRequest(session, file, config, idle_placement,
                    state->block_to_pos[idle_placement].at(block));
  }
}

void RRaidScheme::healLostReplicas(
    StoredFile& file,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& lost) {
  const auto h = static_cast<std::uint32_t>(file.placements.size());
  for (const auto& [origin, block] : lost) {
    // Next live placement after the old home that does not already hold
    // the block (replication gains nothing from a second local copy).
    for (std::uint32_t step = 1; step < h; ++step) {
      const std::uint32_t target = (origin + step) % h;
      const auto& p = file.placements[target];
      if (cluster().disk(p.global_disk).failed()) continue;
      if (std::find(p.stored.begin(), p.stored.end(), block) !=
          p.stored.end()) {
        continue;
      }
      issueHealWrite(file, target, block);
      break;
    }
  }
}

void RRaidScheme::startWrite(Session& session, const AccessConfig& config,
                             std::span<const std::uint32_t> disks,
                             const LayoutPolicy& policy, Rng& rng,
                             StoredFile& out) {
  const auto h = static_cast<std::uint32_t>(disks.size());
  const coding::RotatedReplicaLayout rotated{config.k, config.replicaCount(),
                                             h};
  out.placements.resize(h);
  write_state_ = std::make_shared<WriteState>();
  auto state = write_state_;

  for (std::uint32_t d = 0; d < h; ++d) {
    auto& p = out.placements[d];
    p.global_disk = disks[d];
    for (const auto& [block, replica] : rotated.onDisk(d)) {
      (void)replica;
      p.stored.push_back(block);
    }
    p.layout = disk::FileDiskLayout::generate(
        static_cast<std::uint32_t>(p.stored.size()), config.block_bytes,
        policy.draw(rng), rng);
    state->total += static_cast<std::uint32_t>(p.stored.size());
  }
  for (std::uint32_t d = 0; d < h; ++d) {
    auto& p = out.placements[d];
    noteServerUsed(session, p.global_disk);
    server::StorageServer& srv = cluster().serverOfDisk(p.global_disk);
    for (std::uint32_t pos = 0; pos < p.stored.size(); ++pos) {
      server::StorageServer::BlockWrite req;
      req.stream = session.stream;
      req.cache_key = out.cacheKey(d, pos);
      req.disk_index = cluster().localDiskIndex(p.global_disk);
      req.layout = &p.layout;
      req.layout_block = pos;
      srv.writeBlock(
          req,
          [this, state, &session] {
            if (session.complete || session.failed) return;
            ++session.blocks_received;
            if (++state->acks == state->total) finish(session);
          },
          [this, &session] {
            // The replicated write commits every copy; a lost commit
            // leaves the file short of its declared redundancy.
            if (session.complete || session.failed) return;
            ++session.failures_observed;
            fail(session);
          });
    }
  }
}

}  // namespace robustore::client
