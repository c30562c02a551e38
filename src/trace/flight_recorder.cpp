#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <cstring>

namespace robustore::trace {

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  if (config_.ring_events == 0) config_.ring_events = 1;
  retained_.reserve(config_.keep_slowest);
}

FlightRecorder::StreamSlot* FlightRecorder::findSlot(std::uint64_t access) {
  if (access == cached_stream_ && cached_slot_ != nullptr) {
    return cached_slot_;
  }
  const auto it = slots_.find(access);
  if (it == slots_.end()) return nullptr;
  cached_stream_ = access;
  cached_slot_ = &it->second;
  return &it->second;
}

FlightRecord* FlightRecorder::openRecord(std::uint64_t access) {
  StreamSlot* slot = findSlot(access);
  return slot != nullptr ? slot->open : nullptr;
}

void FlightRecorder::beginAccess(std::uint64_t stream, SimTime now) {
  StreamSlot& slot = slots_[stream];
  cached_stream_ = stream;
  cached_slot_ = &slot;
  // A reused stream id with a still-open record means the previous
  // access never reached an explicit close; fold it as incomplete.
  if (slot.open != nullptr) closeSlot(slot, now, /*complete=*/false);

  std::unique_ptr<FlightRecord> rec;
  if (!pool_.empty()) {
    rec = std::move(pool_.back());
    pool_.pop_back();
    rec->stages = StageBreakdown{};
    rec->reissues = rec->blocks_lost = rec->blocks_corrupt = 0;
    rec->events_seen = 0;
    rec->disk_busy.clear();
    rec->events.clear();
    rec->ring_head = 0;
  } else {
    rec = std::make_unique<FlightRecord>();
    rec->events.reserve(config_.ring_events);
    rec->disk_busy.reserve(kMaxDisks);
  }
  rec->stream = stream;
  rec->start = now;
  rec->end = now;
  rec->closed = false;
  rec->complete = false;
  slot.open = rec.release();
  ++begun_;
}

void FlightRecorder::closeSlot(StreamSlot& slot, SimTime end, bool complete) {
  FlightRecord* rec = slot.open;
  slot.open = nullptr;
  rec->end = end;
  rec->closed = true;
  rec->complete = complete;
  slot.last = rec->stages;
  slot.has_last = true;
  ++closed_;
  offer(std::unique_ptr<FlightRecord>(rec));
}

void FlightRecorder::endAccess(std::uint64_t stream, SimTime end,
                               bool complete) {
  const auto it = slots_.find(stream);
  if (it == slots_.end() || it->second.open == nullptr) return;
  closeSlot(it->second, end, complete);
}

void FlightRecorder::push(FlightRecord& rec, const FlightEvent& e) {
  ++rec.events_seen;
  ++events_seen_;
  if (rec.events.size() < config_.ring_events) {
    rec.events.push_back(e);
    return;
  }
  rec.events[rec.ring_head] = e;
  rec.ring_head = (rec.ring_head + 1) % config_.ring_events;
}

std::uint16_t FlightRecorder::internName(const char* name) {
  // Names are string literals in practice, so pointer equality hits
  // first; strcmp catches duplicated literals across TUs.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
      return static_cast<std::uint16_t>(i);
    }
  }
  if (names_.size() >= 0xffff) return 0xffff - 1;  // table full: last slot
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void FlightRecorder::onSpan(Stage stage, SimTime begin, SimTime end,
                            std::uint64_t access, std::uint32_t disk) {
  if (access == 0) return;
  StreamSlot* slot = findSlot(access);
  if (slot == nullptr) return;
  FlightRecord* rec = slot->open;
  if (rec == nullptr) {
    // Post-completion tail: cancelled requests and reissue chains settle
    // after the access closed, and a tracer's per-access breakdown()
    // includes those spans. Fold them into the slot's last breakdown so
    // lastBreakdown() stays bitwise equal to the tracer's sums; the
    // offered record keeps its through-completion view for forensics.
    if (slot->has_last) slot->last.addSpan(stage, end - begin);
    return;
  }
  const double duration = end - begin;
  rec->stages.addSpan(stage, duration);
  if (stage == Stage::kClientReissue) ++rec->reissues;
  const bool disk_stage = static_cast<std::uint8_t>(stage) <=
                          static_cast<std::uint8_t>(Stage::kDiskTransfer);
  if (disk_stage && disk != kNoDisk) {
    bool found = false;
    for (auto& [d, busy] : rec->disk_busy) {
      if (d == disk) {
        busy += duration;
        found = true;
        break;
      }
    }
    if (!found && rec->disk_busy.size() < kMaxDisks) {
      rec->disk_busy.emplace_back(disk, duration);
    }
  }
  FlightEvent e;
  e.rel_end = static_cast<float>(end - rec->start);
  e.duration = static_cast<float>(duration);
  e.kind = FlightEvent::kStageSpan;
  e.stage = static_cast<std::uint8_t>(stage);
  e.disk = disk;
  push(*rec, e);
}

void FlightRecorder::onNamedSpan(const char* name, SimTime begin, SimTime end,
                                 std::uint64_t access, std::uint32_t disk) {
  if (access == 0) return;
  FlightRecord* rec = openRecord(access);
  if (rec == nullptr) {
    // The settle-path "client.access" envelope arrives after the record
    // closed — nothing to do. For a still-open record it is the
    // fallback close below.
    return;
  }
  FlightEvent e;
  e.rel_end = static_cast<float>(end - rec->start);
  e.duration = static_cast<float>(end - begin);
  e.kind = FlightEvent::kNamedSpan;
  e.name = internName(name);
  e.disk = disk;
  push(*rec, e);
  if (std::strcmp(name, "client.access") == 0) {
    endAccess(access, end, /*complete=*/false);
  }
}

void FlightRecorder::onInstant(const char* name, SimTime at,
                               std::uint64_t access, std::uint32_t disk) {
  if (access == 0) {
    // System-wide instants: keep the fault log (fault injection traces
    // with access id 0) for concurrent-fault attribution.
    if (std::strncmp(name, "fault.", 6) == 0 &&
        faults_.size() < kMaxFaults) {
      faults_.push_back({at, disk, internName(name)});
    }
    return;
  }
  FlightRecord* rec = openRecord(access);
  if (rec == nullptr) return;
  if (std::strcmp(name, "client.block_lost") == 0) ++rec->blocks_lost;
  if (std::strcmp(name, "client.block_corrupt") == 0) ++rec->blocks_corrupt;
  FlightEvent e;
  e.rel_end = static_cast<float>(at - rec->start);
  e.kind = FlightEvent::kInstant;
  e.name = internName(name);
  e.disk = disk;
  push(*rec, e);
}

const StageBreakdown* FlightRecorder::lastBreakdown(
    std::uint64_t stream) const {
  const auto it = slots_.find(stream);
  if (it == slots_.end() || !it->second.has_last) return nullptr;
  return &it->second.last;
}

std::uint32_t FlightRecorder::faultsBetween(SimTime a, SimTime b) const {
  std::uint32_t n = 0;
  for (const FaultEntry& f : faults_) {
    if (f.at >= a && f.at <= b) ++n;
  }
  return n;
}

std::pair<std::uint32_t, double> FlightRecorder::stragglerDisk(
    const FlightRecord& rec) {
  std::uint32_t disk = kNoDisk;
  double busy = 0.0;
  for (const auto& [d, b] : rec.disk_busy) {
    if (disk == kNoDisk || b > busy) {
      disk = d;
      busy = b;
    }
  }
  return {disk, busy};
}

void FlightRecorder::expand(const FlightRecord& rec, Tracer& out) const {
  out.namedSpan("client.access", rec.start, rec.end, rec.stream,
                kClientTrack);
  const std::size_t n = rec.events.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FlightEvent& e =
        rec.events[(rec.ring_head + i) % n];  // oldest -> newest
    const SimTime end = rec.start + static_cast<double>(e.rel_end);
    const SimTime begin = end - static_cast<double>(e.duration);
    switch (e.kind) {
      case FlightEvent::kStageSpan: {
        const auto stage = static_cast<Stage>(e.stage);
        std::uint32_t track = kClientTrack;
        if (e.stage <= static_cast<std::uint8_t>(Stage::kDiskTransfer) &&
            e.disk != kNoDisk) {
          track = diskTrack(e.disk);
        } else if (stage == Stage::kNetTransfer) {
          track = kClientLinkTrack;
        }
        out.span(stage, begin, end, rec.stream, track, e.disk);
        break;
      }
      case FlightEvent::kNamedSpan:
        out.namedSpan(out.intern(names_[e.name]), begin, end, rec.stream,
                      kClientTrack, e.disk);
        break;
      case FlightEvent::kInstant:
        out.instant(out.intern(names_[e.name]), end, rec.stream,
                    kClientTrack, e.disk);
        break;
    }
  }
  for (const FaultEntry& f : faults_) {
    if (f.at >= rec.start && f.at <= rec.end) {
      out.instant(out.intern(names_[f.name]), f.at, rec.stream, kFaultTrack,
                  f.disk);
    }
  }
}

void FlightRecorder::offer(std::unique_ptr<FlightRecord> rec) {
  const double lat = rec->latency();
  if (retained_.size() < config_.keep_slowest) {
    retained_.push_back(std::move(rec));
    return;
  }
  if (retained_.empty()) {
    recycle(std::move(rec));
    return;
  }
  // Full: replace the fastest retained record only if strictly slower.
  // The <= scan evicts the *latest* of equal-latency records, so the
  // first-seen record wins ties — retention order is deterministic.
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < retained_.size(); ++i) {
    if (retained_[i]->latency() <= retained_[fastest]->latency()) {
      fastest = i;
    }
  }
  if (lat > retained_[fastest]->latency()) {
    recycle(std::move(retained_[fastest]));
    retained_[fastest] = std::move(rec);
  } else {
    recycle(std::move(rec));
  }
}

void FlightRecorder::recycle(std::unique_ptr<FlightRecord> rec) {
  pool_.push_back(std::move(rec));
}

void FlightRecorder::absorb(FlightRecorder& other) {
  for (const FaultEntry& f : other.faults_) {
    if (faults_.size() >= kMaxFaults) break;
    faults_.push_back({f.at, f.disk, internName(other.names_[f.name])});
  }
  for (auto& rec : other.retained_) {
    // Re-intern ring names into this recorder's table.
    for (FlightEvent& e : rec->events) {
      if (e.kind != FlightEvent::kStageSpan) {
        e.name = internName(other.names_[e.name]);
      }
    }
    offer(std::move(rec));
  }
  other.retained_.clear();
  begun_ += other.begun_;
  closed_ += other.closed_;
  events_seen_ += other.events_seen_;
  other.begun_ = other.closed_ = other.events_seen_ = 0;
  other.faults_.clear();
}

}  // namespace robustore::trace
