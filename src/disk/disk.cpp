#include "disk/disk.hpp"

#include <algorithm>
#include <utility>

#include "common/expects.hpp"
#include "telemetry/host_profiler.hpp"

namespace robustore::disk {
namespace {

/// The engine event that delivers one failure notice: the request's
/// callback and its id, inline in the event (never on the heap).
sim::Engine::Callback failureNotice(RequestId id, Disk::FailureFn fn) {
  auto notice = [id, f = std::move(fn)]() mutable { f(id); };
  static_assert(sizeof(notice) <= sim::Engine::Callback::kInlineBytes,
                "a failure notice must fit the engine's inline buffer");
  return notice;
}

}  // namespace

Disk::Disk(sim::Engine& engine, const DiskParams& params, Rng rng,
           std::uint32_t id)
    : engine_(&engine), params_(params), rng_(rng), id_(id) {}

bool Disk::stalled() const { return stalled_until_ > engine_->now(); }

double Disk::mediaRate(double zone) const {
  return params_.media_rate_min +
         zone * (params_.media_rate_max - params_.media_rate_min);
}

RequestId Disk::submit(const DiskRequestSpec& spec, CompletionFn done,
                       FailureFn failed) {
  ROBUSTORE_EXPECTS(!spec.extents.empty(), "request without extents");
  ROBUSTORE_EXPECTS(spec.media_rate > 0, "request needs a media rate");
  if (failed_) {
    // Fail-fast path: the submitter learns at once (plus whatever network
    // delay its own callback models), not after a global timeout.
    if (tracer_ != nullptr) {
      tracer_->instant("fault.abort", engine_->now(), spec.stream,
                       trace::diskTrack(id_), id_);
    }
    if (failed) {
      engine_->schedule(0.0, failureNotice(kInvalidRequest, std::move(failed)));
    }
    return kInvalidRequest;
  }
  const RequestId id = requests_.acquire().value;
  Request& r = request(id);
  r.extents.assign(spec.extents.begin(), spec.extents.end());
  if (spec.reposition_first) r.extents.front().continues_previous = false;
  if (spec.max_bytes != 0) {
    // Partial read: keep the leading `max_bytes` of the run chain.
    Bytes remaining = spec.max_bytes;
    std::size_t keep = 0;
    for (auto& e : r.extents) {
      if (remaining == 0) break;
      if (e.bytes > remaining) e.bytes = remaining;
      remaining -= e.bytes;
      ++keep;
    }
    r.extents.resize(keep);
  }
  Bytes bytes = 0;
  for (const auto& e : r.extents) bytes += e.bytes;
  r.done = std::move(done);
  r.on_failed = std::move(failed);
  r.stream = spec.stream;
  r.media_rate = spec.media_rate;
  r.seek_scale = spec.seek_scale;
  r.bytes = bytes;
  r.priority = spec.priority;
  r.state = RequestState::kPending;
  if (tracer_ != nullptr) r.submitted = engine_->now();
  if (r.priority == Priority::kBackground) {
    bg_queue_.push_back(id);
  } else {
    auto& q = streamQueue(r.stream);
    if (q.empty()) fg_rotation_.push_back(r.stream);
    q.push_back(id);
  }
  if (!busy()) serveNext();
  return id;
}

void Disk::abortRequest(RequestId id,
                        std::vector<sim::Engine::BatchEvent>& aborts) {
  Request& r = request(id);
  r.state = RequestState::kAborted;
  if (tracer_ != nullptr) {
    tracer_->instant("fault.abort", engine_->now(), r.stream,
                     trace::diskTrack(id_), id_, id);
  }
  FailureFn fn = std::move(r.on_failed);
  release(id);  // the batched event is self-contained; reset() stays safe
  if (fn) {
    aborts.push_back({0.0, failureNotice(id, std::move(fn))});
  }
}

void Disk::failStop() {
  if (failed_) return;
  failed_ = true;
  if (tracer_ != nullptr) {
    tracer_->instant("fault.fail_stop", engine_->now(), 0,
                     trace::diskTrack(id_), id_);
  }
  if (failure_listener_) failure_listener_(id_);
  // Failure notifications for everything this disk still owed are
  // collected here and scheduled as one batch at the end — a dead disk
  // with a deep queue is the engine's largest homogeneous burst.
  std::vector<sim::Engine::BatchEvent> aborts;
  if (in_service_ != kInvalidRequest) {
    // Refund the unserved remainder: service time was charged up front at
    // startService, but everything past now (or past the pending stall
    // window the request was parked behind) never happened.
    Request& r = request(in_service_);
    const SimTime unserved = std::max(
        0.0, service_end_ - std::max(engine_->now(), stalled_until_));
    busy_time_[static_cast<std::size_t>(r.priority)] -= unserved;
    if (completion_event_.valid()) {
      engine_->cancel(completion_event_);
      completion_event_ = {};
    }
    abortRequest(in_service_, aborts);
    in_service_ = kInvalidRequest;
  }
  // Abort everything queued, background first, then streams in rotation
  // order (a deterministic order — fg_queues_ iteration would not be).
  std::vector<RequestId> doomed(bg_queue_.begin(), bg_queue_.end());
  bg_queue_.clear();
  for (const StreamId stream : fg_rotation_) {
    auto it = fg_queues_.find(stream);
    if (it == fg_queues_.end()) continue;
    doomed.insert(doomed.end(), it->second.begin(), it->second.end());
    retireQueue(it);
  }
  fg_rotation_.clear();
  for (const RequestId id : doomed) {
    const Request* r = resolve(id);
    if (r == nullptr) continue;
    if (r->state == RequestState::kCancelled) {
      release(id);  // lazily-cancelled entry: no notification owed
    } else {
      abortRequest(id, aborts);
    }
  }
  engine_->scheduleBatch(aborts);
}

void Disk::recover() {
  if (!failed_) return;
  failed_ = false;
  if (tracer_ != nullptr) {
    tracer_->instant("fault.recover", engine_->now(), 0,
                     trace::diskTrack(id_), id_);
  }
  if (!busy()) serveNext();
}

void Disk::stall(SimTime duration) {
  ROBUSTORE_EXPECTS(duration >= 0.0, "negative stall");
  const SimTime now = engine_->now();
  const SimTime pause_from = std::max(stalled_until_, now);
  stalled_until_ = std::max(stalled_until_, now + duration);
  const SimTime extension = stalled_until_ - pause_from;
  if (extension <= 0.0) return;
  if (tracer_ != nullptr) {
    tracer_->namedSpan("fault.stall", pause_from, stalled_until_, 0,
                       trace::diskTrack(id_), id_);
  }
  if (in_service_ != kInvalidRequest) {
    service_end_ += extension;
    if (completion_event_.valid()) engine_->cancel(completion_event_);
    scheduleCompletion();
  }
}

void Disk::setServiceMultiplier(double multiplier) {
  ROBUSTORE_EXPECTS(multiplier > 0.0, "service multiplier must be positive");
  service_multiplier_ = multiplier;
  if (tracer_ != nullptr) {
    tracer_->instant(multiplier > 1.0 ? "fault.slow_disk" : "fault.recover",
                     engine_->now(), 0, trace::diskTrack(id_), id_);
  }
}

bool Disk::cancel(RequestId id) {
  Request* r = resolve(id);
  if (r == nullptr || r->state != RequestState::kPending) return false;
  r->state = RequestState::kCancelled;  // lazily skipped when popped
  return true;
}

std::size_t Disk::cancelStream(StreamId stream) {
  std::size_t n = 0;
  // A request that was still pending owes its owner a notification:
  // without one, a tracked read whose queued attempt dies here never
  // settles, so its session's live-request ledger never drains (and a
  // campaign's retired-session list grows without bound). Cancelled
  // entries (watchdog re-issues) already settled client-side and stay
  // silent. The notice rides the failure channel; clients only ever
  // cancel a stream after completion, so it lands as pure settle
  // accounting.
  std::vector<sim::Engine::BatchEvent> notices;
  const auto reap = [&](RequestId id, Request& r) {
    const bool was_pending = r.state == RequestState::kPending;
    r.state = RequestState::kCancelled;
    FailureFn fn = std::move(r.on_failed);
    release(id);
    if (was_pending) {
      ++n;
      if (fn) notices.push_back({0.0, failureNotice(id, std::move(fn))});
    }
  };
  // Background requests of this stream: filter the live queue in place.
  std::deque<RequestId> kept;
  for (const RequestId id : bg_queue_) {
    Request* r = resolve(id);
    if (r != nullptr && r->state == RequestState::kPending &&
        r->stream == stream) {
      reap(id, *r);
    } else {
      kept.push_back(id);
    }
  }
  bg_queue_.swap(kept);
  // Foreground: the whole per-stream queue goes at once. The stream's
  // fg_rotation_ entry (if any) is left behind; serveNext skips it.
  if (auto it = fg_queues_.find(stream); it != fg_queues_.end()) {
    for (const RequestId id : it->second) {
      Request* r = resolve(id);
      if (r == nullptr) continue;
      reap(id, *r);
    }
    retireQueue(it);
  }
  if (!notices.empty()) engine_->scheduleBatch(notices);
  return n;
}

std::size_t Disk::queueDepth() const {
  std::size_t n = 0;
  const auto live = [this](RequestId id) {
    const Request* r = resolve(id);
    return r != nullptr && r->state == RequestState::kPending;
  };
  for (const RequestId id : bg_queue_) {
    if (live(id)) ++n;
  }
  for (const auto& [stream, q] : fg_queues_) {
    for (const RequestId id : q) {
      if (live(id)) ++n;
    }
  }
  return n;
}

std::optional<RequestState> Disk::requestState(RequestId id) const {
  const Request* r = resolve(id);
  if (r == nullptr) return std::nullopt;
  return r->state;
}

Bytes Disk::inServiceBytes(StreamId stream) const {
  const Request* r = resolve(in_service_);
  if (r == nullptr) return 0;
  return r->stream == stream ? r->bytes : 0;
}

void Disk::reset() {
  ROBUSTORE_EXPECTS(!busy(), "reset of a busy disk");
  ROBUSTORE_EXPECTS(queueDepth() == 0, "reset with queued requests");
  requests_ = {};
  bg_queue_.clear();
  fg_queues_.clear();
  spare_queues_.clear();
  fg_rotation_.clear();
}

std::deque<RequestId>& Disk::streamQueue(StreamId stream) {
  if (auto it = fg_queues_.find(stream); it != fg_queues_.end()) {
    return it->second;
  }
  if (spare_queues_.empty()) return fg_queues_[stream];
  StreamQueues::node_type node = std::move(spare_queues_.back());
  spare_queues_.pop_back();
  node.key() = stream;
  return fg_queues_.insert(std::move(node)).position->second;
}

void Disk::retireQueue(StreamQueues::iterator it) {
  it->second.clear();
  spare_queues_.push_back(fg_queues_.extract(it));
}

RequestId Disk::popLive(std::deque<RequestId>& queue) {
  while (!queue.empty()) {
    const RequestId id = queue.front();
    queue.pop_front();
    Request* r = resolve(id);
    if (r == nullptr) continue;  // stale handle
    if (r->state == RequestState::kCancelled) {
      release(id);  // reclaim lazily-cancelled slots as we pass them
      continue;
    }
    return id;
  }
  return kInvalidRequest;
}

void Disk::serveNext() {
  const telemetry::HostProfiler::Scope profile(
      telemetry::HostScope::kDiskService);
  if (failed_) return;
  // Background first (see Priority docs)...
  if (const RequestId id = popLive(bg_queue_); id != kInvalidRequest) {
    startService(id);
    return;
  }
  // ...then round-robin across foreground streams.
  while (!fg_rotation_.empty()) {
    const StreamId stream = fg_rotation_.front();
    fg_rotation_.pop_front();
    auto it = fg_queues_.find(stream);
    if (it == fg_queues_.end()) continue;
    const RequestId id = popLive(it->second);
    if (it->second.empty()) {
      retireQueue(it);
    } else {
      fg_rotation_.push_back(stream);
    }
    if (id != kInvalidRequest) {
      startService(id);
      return;
    }
  }
}

void Disk::startService(RequestId id) {
  const telemetry::HostProfiler::Scope profile(
      telemetry::HostScope::kDiskService);
  in_service_ = id;
  Request& r = request(id);
  r.state = RequestState::kInService;
  const ServiceParts parts = serviceParts(r);
  const SimTime service = parts.total * service_multiplier_;
  busy_time_[static_cast<std::size_t>(r.priority)] += service;
  // A service that starts inside a stall window only begins once the
  // window ends; the wait is not charged as busy time.
  const SimTime start = std::max(engine_->now(), stalled_until_);
  service_end_ = start + service;
  if (tracer_ != nullptr) {
    r.service_start = start;
    // Scale now: the straggler multiplier may change before completion,
    // but it applies to what *starts* service under it.
    r.parts.overhead = parts.overhead * service_multiplier_;
    r.parts.seek = parts.seek * service_multiplier_;
    r.parts.rotate = parts.rotate * service_multiplier_;
    r.parts.transfer = parts.transfer * service_multiplier_;
    r.parts.total = service;
  }
  scheduleCompletion();
}

void Disk::traceCompletion(const Request& r, RequestId id) {
  // Stage spans are laid out backwards from the completion time in
  // canonical overhead -> seek -> rotate -> transfer order (the model
  // interleaves them per extent; the trace collapses them per request).
  // A stall that hit mid-service shows up as the gap between the queue
  // wait and the first positioning span.
  const SimTime end = engine_->now();
  const SimTime transfer = r.parts.transfer;
  const SimTime rotate = r.parts.rotate;
  const SimTime seek = r.parts.seek;
  const SimTime overhead = r.parts.overhead;
  SimTime t = end - transfer - rotate - seek - overhead;
  const std::uint64_t access = r.stream;
  const std::uint32_t track = trace::diskTrack(id_);
  tracer_->span(trace::Stage::kDiskQueueWait, r.submitted, r.service_start,
                access, track, id_, id);
  tracer_->span(trace::Stage::kDiskOverhead, t, t + overhead, access, track,
                id_, id);
  t += overhead;
  tracer_->span(trace::Stage::kDiskSeek, t, t + seek, access, track, id_, id);
  t += seek;
  tracer_->span(trace::Stage::kDiskRotate, t, t + rotate, access, track, id_,
                id);
  t += rotate;
  tracer_->span(trace::Stage::kDiskTransfer, t, end, access, track, id_, id);
}

void Disk::scheduleCompletion() {
  const RequestId id = in_service_;
  completion_event_ =
      engine_->schedule(service_end_ - engine_->now(), [this, id] {
        completion_event_ = {};
        Request& req = request(id);
        req.state = RequestState::kCompleted;
        in_service_ = kInvalidRequest;
        bytes_served_[static_cast<std::size_t>(req.priority)] +=
            req.bytes;
        last_stream_ = req.stream;
        has_served_ = true;
        if (tracer_ != nullptr) traceCompletion(req, id);
        // Move out and reclaim the slot first: completion handlers may
        // re-enter submit(), which can recycle the slab's storage.
        CompletionFn done = std::move(req.done);
        release(id);
        if (done) done(id);
        if (!busy()) serveNext();
      });
}

Disk::ServiceParts Disk::serviceParts(const Request& r) {
  // `total` accumulates term-by-term in the historical order; the
  // component fields just regroup the same values. Both the rng draw
  // sequence and the floating-point sum are bit-identical to the
  // undecomposed model, so attaching a tracer never moves a timestamp.
  ServiceParts p;
  SimTime t = 0.0;
  const SimTime rev = params_.revolution();
  bool prior_is_same_stream = has_served_ && last_stream_ == r.stream;
  for (const auto& e : r.extents) {
    t += params_.command_overhead;
    p.overhead += params_.command_overhead;
    const bool sequential = e.continues_previous && prior_is_same_stream;
    if (sequential) {
      if (rng_.bernoulli(params_.seq_miss_prob)) {
        const SimTime rot = rng_.uniform() * rev;
        t += rot;
        p.rotate += rot;
      }
    } else {
      const SimTime seek =
          r.seek_scale * rng_.uniform(params_.seek_min, params_.seek_max);
      const SimTime rot = rng_.uniform() * rev;
      t += seek + rot;
      p.seek += seek;
      p.rotate += rot;
    }
    const SimTime xfer = static_cast<double>(e.bytes) / r.media_rate;
    t += xfer;
    p.transfer += xfer;
    const SimTime track_switch =
        static_cast<double>(e.bytes) /
        static_cast<double>(params_.track_bytes) * params_.track_switch;
    t += track_switch;
    p.overhead += track_switch;
    prior_is_same_stream = true;  // later extents follow our own head state
  }
  p.total = t;
  return p;
}

}  // namespace robustore::disk
