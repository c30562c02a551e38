#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "coding/lt_graph.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace robustore::meta {

/// Quality-of-service options an application passes to open() — the
/// Appendix B dimensions: traffic profile plus performance requirements.
struct QosOptions {
  /// Minimum sustained access bandwidth, bytes/second (0 = best effort).
  double min_bandwidth = 0.0;
  /// Upper bound on acceptable mean access latency (0 = unconstrained).
  SimTime max_latency = 0.0;
  /// Acceptable relative latency variation (stddev/mean; 0 = don't care).
  double max_latency_variation = 0.0;
  /// Requested degree of data redundancy (writes; 0 = system default).
  double redundancy = 0.0;
  /// Storage capacity to reserve for the file (writes).
  Bytes reserve_bytes = 0;
  /// Expected number of simultaneous readers.
  std::uint32_t simultaneous_accesses = 1;
};

enum class AccessType : std::uint8_t { kRead, kWrite };
enum class CodingScheme : std::uint8_t { kNone, kReplication, kLtCode };

/// Static + dynamic information about one storage device (§4.2: capacity
/// and peak performance registered at join time; load and availability
/// refreshed from client reports and periodic queries).
struct DiskRecord {
  std::uint32_t global_disk = 0;
  std::uint32_t site = 0;  // geographic site (filer) for path diversity
  Bytes capacity = 400 * kGiB;
  Bytes used = 0;
  double peak_bandwidth = mbps(50.0);
  /// Exponentially weighted recent utilisation in [0, 1].
  double recent_load = 0.0;
  /// Long-term availability of the hosting server in [0, 1].
  double availability = 0.99;
  SimTime last_report = 0.0;
  /// Instantaneous liveness (periodic queries / churn notifications).
  /// The repair service's scan reads this to detect lost placements.
  bool up = true;

  [[nodiscard]] double freeFraction() const {
    return capacity == 0
               ? 0.0
               : 1.0 - static_cast<double>(used) / static_cast<double>(capacity);
  }
};

/// Per-file metadata (§4.2): identity, size, coding scheme and
/// parameters, placement summary, owner, and lock state.
struct FileRecord {
  std::string name;
  std::uint64_t file_id = 0;
  Bytes size = 0;
  Bytes block_bytes = 0;
  std::uint32_t k = 0;
  CodingScheme coding = CodingScheme::kNone;
  coding::LtParams lt;
  std::string owner;
  /// (disk, stored block count) pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> locations;
  std::uint32_t readers = 0;
  bool writer_locked = false;
};

/// Descriptor returned by open(): everything a client needs to plan the
/// access (§4.3.1: "data location, coding algorithm, coding parameters,
/// and data offset").
struct FileDescriptor {
  std::uint64_t handle = 0;
  std::uint64_t file_id = 0;
  AccessType type = AccessType::kRead;
  CodingScheme coding = CodingScheme::kNone;
  coding::LtParams lt;
  Bytes size = 0;
  Bytes block_bytes = 0;
  std::uint32_t k = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> locations;
};

/// Outcome of an open() attempt.
enum class OpenStatus : std::uint8_t {
  kOk,
  kNotFound,        // read of an unknown file
  kAlreadyExists,   // exclusive create of an existing file
  kLockConflict,    // writer present (reads) or any user present (writes)
  kNoCapacity,      // reservation cannot be satisfied
};

/// In-memory metadata service (§4.2). A single logical server: the paper
/// argues one well-designed metadata server suffices because it is only
/// touched at open/close. The constant per-operation latency is charged
/// by the *client* simulation (AccessConfig::metadata_latency); this class
/// is pure bookkeeping so it can also serve non-simulated tooling.
class MetadataServer {
 public:
  MetadataServer() = default;

  // --- storage-server registry -------------------------------------------
  void registerDisk(const DiskRecord& record);
  [[nodiscard]] std::size_t numDisks() const { return disks_.size(); }
  [[nodiscard]] const DiskRecord* disk(std::uint32_t global_disk) const;
  [[nodiscard]] const std::unordered_map<std::uint32_t, DiskRecord>& disks()
      const {
    return disks_;
  }

  /// Client access reports fold into the EWMA load (§4.2: dynamic info
  /// "may come from the client accesses").
  void reportLoad(std::uint32_t global_disk, double utilization, SimTime now);
  /// Write commits consume capacity.
  void addUsage(std::uint32_t global_disk, Bytes bytes);

  /// Availability updates (churn notifications / periodic queries).
  void setDiskUp(std::uint32_t global_disk, bool up) {
    auto it = disks_.find(global_disk);
    if (it != disks_.end()) it->second.up = up;
  }
  [[nodiscard]] bool diskUp(std::uint32_t global_disk) const {
    auto it = disks_.find(global_disk);
    return it != disks_.end() && it->second.up;
  }

  /// §5.3.1 disk selection: prefers lightly loaded disks with free space,
  /// spreads across sites, and mixes availability classes. `count` disks
  /// are returned, deterministically given `rng`.
  [[nodiscard]] std::vector<std::uint32_t> selectDisks(
      std::uint32_t count, const QosOptions& qos, Rng& rng) const;

  // --- namespace and locking ----------------------------------------------
  /// Opens (or, for writes, creates) a file. Reads take a shared lock,
  /// writes an exclusive lock; conflicting opens fail with kLockConflict.
  [[nodiscard]] OpenStatus open(const std::string& name, AccessType type,
                                const QosOptions& qos, FileDescriptor* out);

  /// Registers the final data structure + location after a write
  /// completes (§4.3.2 step: "register the data structure and location").
  void registerFile(std::uint64_t handle, Bytes size, Bytes block_bytes,
                    std::uint32_t k, CodingScheme coding,
                    const coding::LtParams& lt,
                    std::vector<std::pair<std::uint32_t, std::uint32_t>>
                        locations);

  /// Releases the lock taken by open(). Unknown handles are ignored.
  void close(std::uint64_t handle);

  [[nodiscard]] bool exists(const std::string& name) const {
    return files_.contains(name);
  }

 private:
  struct Handle {
    std::string name;
    AccessType type;
  };

  std::unordered_map<std::uint32_t, DiskRecord> disks_;
  std::unordered_map<std::string, FileRecord> files_;
  std::unordered_map<std::uint64_t, Handle> handles_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t next_file_id_ = 1;
};

}  // namespace robustore::meta
