#include "meta/metadata_server.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/expects.hpp"

namespace robustore::meta {

void MetadataServer::registerDisk(const DiskRecord& record) {
  disks_[record.global_disk] = record;
}

const DiskRecord* MetadataServer::disk(std::uint32_t global_disk) const {
  const auto it = disks_.find(global_disk);
  return it == disks_.end() ? nullptr : &it->second;
}

void MetadataServer::reportLoad(std::uint32_t global_disk, double utilization,
                                SimTime now) {
  auto it = disks_.find(global_disk);
  if (it == disks_.end()) return;
  DiskRecord& d = it->second;
  // EWMA with a half-life of roughly three reports: responsive to load
  // shifts but stable against single noisy accesses.
  constexpr double kAlpha = 0.25;
  d.recent_load = (1.0 - kAlpha) * d.recent_load +
                  kAlpha * std::clamp(utilization, 0.0, 1.0);
  d.last_report = now;
}

void MetadataServer::addUsage(std::uint32_t global_disk, Bytes bytes) {
  auto it = disks_.find(global_disk);
  if (it == disks_.end()) return;
  it->second.used = std::min(it->second.capacity, it->second.used + bytes);
}

std::vector<std::uint32_t> MetadataServer::selectDisks(std::uint32_t count,
                                                       const QosOptions& qos,
                                                       Rng& rng) const {
  ROBUSTORE_EXPECTS(count >= 1, "selection of zero disks");
  ROBUSTORE_EXPECTS(count <= disks_.size(), "more disks requested than known");

  // Score each candidate per §5.3.1: lightly loaded first, then free
  // space; a small random perturbation breaks ties so repeated accesses
  // do not all converge on the same disks.
  struct Candidate {
    std::uint32_t id;
    std::uint32_t site;
    double availability;
    double score;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(disks_.size());
  const Bytes per_disk_reserve =
      qos.reserve_bytes > 0 ? qos.reserve_bytes / count + 1 : 0;
  for (const auto& [id, d] : disks_) {
    if (per_disk_reserve > 0 &&
        d.used + per_disk_reserve > d.capacity) {
      continue;  // cannot hold its share of the reservation
    }
    const double score = 0.6 * (1.0 - d.recent_load) +
                         0.3 * d.freeFraction() + 0.1 * rng.uniform();
    candidates.push_back(Candidate{id, d.site, d.availability, score});
  }
  ROBUSTORE_EXPECTS(candidates.size() >= count,
                    "not enough capacity-feasible disks");
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });

  // Greedy pick with two §5.3.1 diversity rules: spread across sites (so
  // flows take different network paths / disaster domains) and mix
  // availability classes (never exhaust only the high-availability pool).
  std::vector<std::uint32_t> picked;
  std::unordered_map<std::uint32_t, std::uint32_t> per_site;
  std::uint32_t high_avail = 0;
  const auto siteQuota = [&](std::uint32_t site) {
    // Allow ceil(count / distinct_sites) + 1 per site.
    std::unordered_set<std::uint32_t> sites;
    for (const auto& c : candidates) sites.insert(c.site);
    const auto quota =
        (count + static_cast<std::uint32_t>(sites.size()) - 1) /
            static_cast<std::uint32_t>(sites.size()) +
        1;
    (void)site;
    return quota;
  };
  const std::uint32_t quota = siteQuota(0);

  for (int pass = 0; pass < 2 && picked.size() < count; ++pass) {
    for (const auto& c : candidates) {
      if (picked.size() >= count) break;
      if (std::find(picked.begin(), picked.end(), c.id) != picked.end()) {
        continue;
      }
      if (pass == 0) {  // diversity-constrained pass
        if (per_site[c.site] >= quota) continue;
        const bool is_high = c.availability >= 0.99;
        // Keep high-availability picks at no more than ~2/3 of the set.
        if (is_high && 3 * (high_avail + 1) > 2 * (count + 2)) continue;
        if (is_high) ++high_avail;
      }
      ++per_site[c.site];
      picked.push_back(c.id);
    }
  }
  ROBUSTORE_EXPECTS(picked.size() == count, "selection fell short");
  return picked;
}

OpenStatus MetadataServer::open(const std::string& name, AccessType type,
                                const QosOptions& qos, FileDescriptor* out) {
  auto it = files_.find(name);
  if (type == AccessType::kRead) {
    if (it == files_.end()) return OpenStatus::kNotFound;
    FileRecord& f = it->second;
    if (f.writer_locked) return OpenStatus::kLockConflict;
    ++f.readers;
  } else {
    if (it == files_.end()) {
      // Create: check the reservation against total free capacity.
      if (qos.reserve_bytes > 0) {
        Bytes free_total = 0;
        for (const auto& [id, d] : disks_) free_total += d.capacity - d.used;
        if (qos.reserve_bytes > free_total) return OpenStatus::kNoCapacity;
      }
      FileRecord f;
      f.name = name;
      f.file_id = next_file_id_++;
      f.writer_locked = true;
      it = files_.emplace(name, std::move(f)).first;
    } else {
      FileRecord& f = it->second;
      if (f.writer_locked || f.readers > 0) return OpenStatus::kLockConflict;
      f.writer_locked = true;
    }
  }

  const FileRecord& f = it->second;
  if (out != nullptr) {
    out->handle = next_handle_;
    out->file_id = f.file_id;
    out->type = type;
    out->coding = f.coding;
    out->lt = f.lt;
    out->size = f.size;
    out->block_bytes = f.block_bytes;
    out->k = f.k;
    out->locations = f.locations;
  }
  handles_.emplace(next_handle_, Handle{name, type});
  ++next_handle_;
  return OpenStatus::kOk;
}

void MetadataServer::registerFile(
    std::uint64_t handle, Bytes size, Bytes block_bytes, std::uint32_t k,
    CodingScheme coding, const coding::LtParams& lt,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> locations) {
  const auto hit = handles_.find(handle);
  ROBUSTORE_EXPECTS(hit != handles_.end(), "registerFile on unknown handle");
  ROBUSTORE_EXPECTS(hit->second.type == AccessType::kWrite,
                    "registerFile needs a write handle");
  auto fit = files_.find(hit->second.name);
  ROBUSTORE_EXPECTS(fit != files_.end(), "registerFile on missing record");
  FileRecord& f = fit->second;
  // Rewrites replace the old placement: release its capacity first.
  for (const auto& [disk_id, blocks] : f.locations) {
    auto dit = disks_.find(disk_id);
    if (dit != disks_.end()) {
      const Bytes bytes = static_cast<Bytes>(blocks) * f.block_bytes;
      dit->second.used -= std::min(dit->second.used, bytes);
    }
  }
  f.size = size;
  f.block_bytes = block_bytes;
  f.k = k;
  f.coding = coding;
  f.lt = lt;
  f.locations = std::move(locations);
  for (const auto& [disk_id, blocks] : f.locations) {
    addUsage(disk_id, static_cast<Bytes>(blocks) * block_bytes);
  }
}

void MetadataServer::close(std::uint64_t handle) {
  const auto hit = handles_.find(handle);
  if (hit == handles_.end()) return;
  auto fit = files_.find(hit->second.name);
  if (fit != files_.end()) {
    if (hit->second.type == AccessType::kRead) {
      if (fit->second.readers > 0) --fit->second.readers;
    } else {
      fit->second.writer_locked = false;
    }
  }
  handles_.erase(hit);
}

}  // namespace robustore::meta
