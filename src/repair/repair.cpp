#include "repair/repair.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "coding/lt_codec.hpp"
#include "common/expects.hpp"

namespace robustore::repair {

RepairService::RepairService(client::Cluster& cluster, RepairConfig config)
    : cluster_(&cluster),
      config_(config),
      stream_(cluster.nextStream()) {
  ROBUSTORE_EXPECTS(config_.scan_interval > 0.0,
                    "repair scan interval must be > 0");
}

void RepairService::protect(client::StoredFile& file, RepairPolicy policy) {
  Protected pf;
  pf.file = &file;
  pf.policy = policy;
  if (pf.policy.k == 0) pf.policy.k = file.k;
  pf.slots.resize(file.placements.size());
  files_.push_back(std::move(pf));
}

void RepairService::start() {
  if (started_) return;
  started_ = true;
  cluster_->engine().schedule(config_.scan_interval, [this] { scan(); });
}

void RepairService::onDiskFailed(std::uint32_t global_disk) {
  cluster_->metadata().setDiskUp(global_disk, false);
  for (Protected& pf : files_) {
    for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
      if (pf.file->placements[p].global_disk != global_disk) continue;
      Slot& slot = pf.slots[p];
      if (slot.state != SlotState::kLost) {
        slot.state = SlotState::kLost;
        ++slot.gen;  // invalidates any in-flight repair of this slot
        pf.dirty = true;
      }
    }
  }
}

void RepairService::onDiskReplaced(std::uint32_t global_disk) {
  // The replacement arrives empty: placements stay lost until a repair
  // job refills them — except slots a loss-event restore already claimed,
  // which the external copy refills on arrival (otherwise a file that
  // lost too many disks at once could never regain enough intact slots
  // to plan a repair from).
  cluster_->metadata().setDiskUp(global_disk, true);
  for (Protected& pf : files_) {
    for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
      if (pf.file->placements[p].global_disk != global_disk) continue;
      Slot& slot = pf.slots[p];
      if (slot.restore_pending && slot.state == SlotState::kLost) {
        slot.state = SlotState::kIntact;
        ++slot.gen;
        slot.restore_pending = false;
        pf.file->clearCorrupt(p);  // external copy is pristine
      }
    }
  }
}

void RepairService::onBlockCorrupted(const client::StoredFile& file,
                                     std::uint32_t p) {
  for (Protected& pf : files_) {
    if (pf.file != &file) continue;
    ROBUSTORE_EXPECTS(p < pf.slots.size(),
                      "corrupted placement index out of range");
    Slot& slot = pf.slots[p];
    if (slot.state != SlotState::kLost) {
      slot.state = SlotState::kLost;
      pf.dirty = true;
    }
    // Bump unconditionally: a job planned before the corruption (slot was
    // kRepairing, or queued while kLost) must not mark the slot intact.
    ++slot.gen;
    return;
  }
}

std::uint32_t RepairService::degradedPlacements() const {
  std::uint32_t n = 0;
  for (const Protected& pf : files_) {
    for (const Slot& slot : pf.slots) {
      if (slot.state != SlotState::kIntact) ++n;
    }
  }
  return n;
}

bool RepairService::decodable(const Protected& pf) const {
  const client::StoredFile& file = *pf.file;
  switch (pf.policy.klass) {
    case RedundancyClass::kReplication: {
      std::vector<char> covered(file.k, 0);
      std::uint32_t have = 0;
      for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
        if (pf.slots[p].state != SlotState::kIntact) continue;
        for (const std::uint64_t id : file.placements[p].stored) {
          if (id < file.k && covered[id] == 0) {
            covered[id] = 1;
            ++have;
          }
        }
      }
      return have == file.k;
    }
    case RedundancyClass::kMds: {
      std::unordered_set<std::uint64_t> distinct;
      for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
        if (pf.slots[p].state != SlotState::kIntact) continue;
        for (const std::uint64_t id : file.placements[p].stored) {
          distinct.insert(id);
          if (distinct.size() >= pf.policy.k) return true;
        }
      }
      return false;
    }
    case RedundancyClass::kLt: {
      ROBUSTORE_EXPECTS(file.lt_graph != nullptr,
                        "LT repair policy on a file without an LT graph");
      coding::LtDecoder decoder(*file.lt_graph);
      for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
        if (pf.slots[p].state != SlotState::kIntact) continue;
        for (const std::uint64_t id : file.placements[p].stored) {
          if (decoder.addSymbol(static_cast<std::uint32_t>(id))) return true;
        }
      }
      return decoder.complete();
    }
  }
  return false;
}

void RepairService::restore(Protected& pf) {
  // External restore (tape/backup, outside the simulated cluster): every
  // placement whose disk is up gets its contents back instantly and for
  // free; slots on down disks stay lost until replaced and repaired.
  for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
    Slot& slot = pf.slots[p];
    if (slot.state == SlotState::kIntact) continue;
    if (!cluster_->metadata().diskUp(pf.file->placements[p].global_disk)) {
      slot.restore_pending = true;  // refilled when the replacement arrives
      continue;
    }
    slot.state = SlotState::kIntact;
    ++slot.gen;  // drop any in-flight repair; the restore superseded it
    pf.file->clearCorrupt(p);
  }
}

bool RepairService::planReads(const Protected& pf, std::uint32_t target,
                              std::vector<ReadOp>& out) const {
  const client::StoredFile& file = *pf.file;
  const Bytes block = file.block_bytes;
  const auto m = static_cast<std::uint32_t>(
      file.placements[target].stored.size());

  std::vector<std::uint32_t> helpers;
  for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
    if (p == target || pf.slots[p].state != SlotState::kIntact) continue;
    if (file.placements[p].stored.empty()) continue;
    helpers.push_back(p);
  }
  if (helpers.empty()) return false;

  switch (pf.policy.klass) {
    case RedundancyClass::kReplication: {
      // One full read of a surviving copy per lost block.
      for (const std::uint64_t id : file.placements[target].stored) {
        bool found = false;
        for (const std::uint32_t q : helpers) {
          const auto& stored = file.placements[q].stored;
          const auto it = std::find(stored.begin(), stored.end(), id);
          if (it == stored.end()) continue;
          out.push_back(
              {q, static_cast<std::uint32_t>(it - stored.begin()), 0});
          found = true;
          break;
        }
        if (!found) return false;
      }
      return true;
    }
    case RedundancyClass::kMds: {
      if (pf.policy.regenerating) {
        // Dimakis regenerating repair: each lost block pulls beta =
        // B/(d-k+1) bytes from each of d helpers instead of a k-block
        // decode. Needs d >= k live helpers; falls back to full-decode
        // below when the survivor set is too narrow.
        std::uint32_t d = static_cast<std::uint32_t>(helpers.size());
        if (pf.policy.helpers != 0) d = std::min(d, pf.policy.helpers);
        if (d >= pf.policy.k) {
          const Bytes beta =
              (block + (d - pf.policy.k + 1) - 1) / (d - pf.policy.k + 1);
          for (std::uint32_t j = 0; j < m; ++j) {
            for (std::uint32_t i = 0; i < d; ++i) {
              const std::uint32_t q = helpers[i];
              const auto pos = static_cast<std::uint32_t>(
                  j % file.placements[q].stored.size());
              out.push_back({q, pos, beta});
            }
          }
          return true;
        }
        out.clear();
      }
      // Naive full-decode repair: read any k distinct coded blocks once,
      // decode, re-encode the whole lost placement.
      std::uint32_t need = pf.policy.k;
      for (const std::uint32_t q : helpers) {
        const auto avail = static_cast<std::uint32_t>(
            file.placements[q].stored.size());
        for (std::uint32_t pos = 0; pos < avail && need > 0; ++pos) {
          out.push_back({q, pos, 0});
          --need;
        }
        if (need == 0) return true;
      }
      return false;
    }
    case RedundancyClass::kLt: {
      // Read surviving coded blocks until the real LT decoder completes:
      // the decode set the rebuild actually needs (can exceed k).
      ROBUSTORE_EXPECTS(file.lt_graph != nullptr,
                        "LT repair policy on a file without an LT graph");
      coding::LtDecoder decoder(*file.lt_graph);
      for (const std::uint32_t q : helpers) {
        const auto& stored = file.placements[q].stored;
        for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
          out.push_back({q, pos, 0});
          if (decoder.addSymbol(static_cast<std::uint32_t>(stored[pos]))) {
            return true;
          }
        }
      }
      return false;
    }
  }
  return false;
}

void RepairService::scheduleRepair(std::uint32_t file_idx,
                                   std::uint32_t target) {
  Protected& pf = files_[file_idx];
  Slot& slot = pf.slots[target];
  const auto m = static_cast<std::uint32_t>(
      pf.file->placements[target].stored.size());
  if (m == 0) {
    slot.state = SlotState::kIntact;  // nothing ever lived there
    return;
  }
  std::vector<ReadOp> reads;
  if (!planReads(pf, target, reads)) {
    return;  // not repairable right now; retried at the next scan
  }
  slot.state = SlotState::kRepairing;
  ++pending_repairs_;

  const Bytes block = pf.file->block_bytes;
  Bytes total = static_cast<Bytes>(m) * block;  // the rebuild writes
  for (const ReadOp& op : reads) total += op.bytes != 0 ? op.bytes : block;

  // Token-bucket admission: the job starts when budgeted bandwidth for
  // its bytes frees up. The reads/writes below still queue on real disks
  // and links, so a congested cluster stretches the job further.
  sim::Engine& engine = cluster_->engine();
  SimTime start = engine.now();
  if (config_.bandwidth_budget > 0.0) {
    start = std::max(start, budget_at_);
    budget_at_ = start + static_cast<double>(total) / config_.bandwidth_budget;
  }
  engine.schedule(start - engine.now(),
                  [this, file_idx, target, gen = slot.gen,
                   reads = std::move(reads)]() mutable {
                    runRepair(file_idx, target, gen, std::move(reads));
                  });
}

void RepairService::runRepair(std::uint32_t file_idx, std::uint32_t target,
                              std::uint32_t gen, std::vector<ReadOp> reads) {
  Protected& pf = files_[file_idx];
  Slot& slot = pf.slots[target];
  const auto abort = [this, file_idx, target, gen] {
    Slot& s = files_[file_idx].slots[target];
    if (s.gen == gen && s.state == SlotState::kRepairing) {
      s.state = SlotState::kLost;
    }
    ++stats_.repairs_aborted;
    --pending_repairs_;
  };
  if (slot.gen != gen || slot.state != SlotState::kRepairing) {
    // Invalidated while queued behind the budget (disk died again or an
    // external restore superseded the job).
    ++stats_.repairs_aborted;
    --pending_repairs_;
    return;
  }
  for (const ReadOp& op : reads) {
    if (pf.slots[op.placement].state != SlotState::kIntact) {
      abort();
      return;
    }
  }

  struct JobState {
    std::uint32_t remaining = 0;
    bool failed = false;
  };
  const Bytes block = pf.file->block_bytes;
  auto read_state = std::make_shared<JobState>();
  read_state->remaining = static_cast<std::uint32_t>(reads.size());

  const auto begin_writes = [this, file_idx, target, gen, abort, block] {
    Protected& f = files_[file_idx];
    Slot& s = f.slots[target];
    if (s.gen != gen || s.state != SlotState::kRepairing) {
      abort();
      return;
    }
    const auto& placement = f.file->placements[target];
    const auto m = static_cast<std::uint32_t>(placement.stored.size());
    auto write_state = std::make_shared<JobState>();
    write_state->remaining = m;
    server::StorageServer& srv =
        cluster_->serverOfDisk(placement.global_disk);
    for (std::uint32_t pos = 0; pos < m; ++pos) {
      server::StorageServer::BlockWrite req;
      req.stream = stream_;
      req.cache_key = f.file->cacheKey(target, pos);
      req.disk_index = cluster_->localDiskIndex(placement.global_disk);
      req.layout = &placement.layout;
      req.layout_block = pos;
      const auto settle_write = [this, file_idx, target, gen, write_state,
                                 abort, m] {
        if (--write_state->remaining != 0) return;
        Slot& s2 = files_[file_idx].slots[target];
        if (write_state->failed || s2.gen != gen ||
            s2.state != SlotState::kRepairing) {
          abort();
          return;
        }
        s2.state = SlotState::kIntact;
        files_[file_idx].file->clearCorrupt(target);  // rebuilt from scratch
        ++stats_.repairs_completed;
        stats_.blocks_repaired += m;
        --pending_repairs_;
      };
      srv.writeBlock(
          req,
          [this, block, settle_write] {
            stats_.bytes_written += block;
            settle_write();
          },
          [write_state, settle_write] {
            write_state->failed = true;
            settle_write();
          });
    }
  };

  for (const ReadOp& op : reads) {
    const auto& helper = pf.file->placements[op.placement];
    server::StorageServer::BlockRead req;
    req.stream = stream_;
    req.cache_key = pf.file->cacheKey(op.placement, op.stored_pos);
    req.disk_index = cluster_->localDiskIndex(helper.global_disk);
    req.layout = &helper.layout;
    req.layout_block = op.stored_pos;
    req.force_position_first = true;  // repair reads are random access
    req.bytes_override = op.bytes;
    const Bytes expect = op.bytes != 0 ? std::min(op.bytes, block) : block;
    const auto settle_read = [read_state, begin_writes, abort] {
      if (--read_state->remaining != 0) return;
      if (read_state->failed) {
        abort();
        return;
      }
      begin_writes();
    };
    server::StorageServer& srv = cluster_->serverOfDisk(helper.global_disk);
    srv.readBlock(
        req,
        [this, file_idx, placement = op.placement, pos = op.stored_pos,
         expect, read_state, settle_read](bool) {
          stats_.bytes_read += expect;  // transferred before the checksum
          if (files_[file_idx].file->isCorrupt(placement, pos)) {
            read_state->failed = true;  // corrupt helper block detected
          }
          settle_read();
        },
        [read_state, settle_read] {
          read_state->failed = true;
          settle_read();
        });
  }
}

void RepairService::scan() {
  ++stats_.scans;
  for (std::uint32_t f = 0; f < files_.size(); ++f) {
    Protected& pf = files_[f];
    if (pf.dirty) {
      if (!decodable(pf)) {
        ++stats_.loss_events;
        restore(pf);
      }
      pf.dirty = false;
    }
    for (std::uint32_t p = 0; p < pf.slots.size(); ++p) {
      if (pf.slots[p].state != SlotState::kLost) continue;
      if (!cluster_->metadata().diskUp(pf.file->placements[p].global_disk)) {
        continue;  // slot still empty; the repair waits for the spare
      }
      scheduleRepair(f, p);
    }
  }
  sim::Engine& engine = cluster_->engine();
  if (config_.horizon <= 0.0 ||
      engine.now() + config_.scan_interval <= config_.horizon) {
    engine.schedule(config_.scan_interval, [this] { scan(); });
  }
}

}  // namespace robustore::repair
