#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/expects.hpp"
#include "telemetry/host_profiler.hpp"

namespace robustore::sim {
namespace {

// Beyond this the double→int64 cast would overflow; all saturating times
// share one ordinal, which keeps the map monotone (they meet in the
// overflow tier and sort by (time, seq) there).
constexpr std::int64_t kMaxOrdinal =
    std::numeric_limits<std::int64_t>::max() / 4;

}  // namespace

std::int64_t Engine::ordinalOf(SimTime t) const {
  const double scaled = t * inv_bucket_width_;
  if (scaled >= static_cast<double>(kMaxOrdinal)) return kMaxOrdinal;
  return static_cast<std::int64_t>(scaled);
}

EventId Engine::schedule(SimTime delay, Callback cb) {
  return scheduleAt(now_ + (delay > 0 ? delay : 0), std::move(cb));
}

EventId Engine::scheduleAt(SimTime when, Callback cb) {
  ROBUSTORE_EXPECTS(when >= now_, "event scheduled in the past");
  ROBUSTORE_EXPECTS(static_cast<bool>(cb), "event with empty callback");
  return insert(when, std::move(cb));
}

void Engine::scheduleBatch(std::span<BatchEvent> events, EventId* ids) {
  // Grow the slab once for the whole burst instead of per event.
  if (events.size() > free_nodes_.size()) {
    nodes_.reserve(nodes_.size() + events.size() - free_nodes_.size());
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventId id = schedule(events[i].delay, std::move(events[i].fn));
    if (ids != nullptr) ids[i] = id;
  }
}

std::uint32_t Engine::allocNode() {
  if (!free_nodes_.empty()) {
    const std::uint32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  return idx;
}

void Engine::freeNode(std::uint32_t idx) {
  Node& node = nodes_[idx];
  node.fn.reset();
  node.state = NodeState::kFree;
  ++node.generation;  // invalidates any outstanding handle before reuse
  free_nodes_.push_back(idx);
}

EventId Engine::insert(SimTime when, SmallFn<> fn) {
  const std::uint32_t idx = allocNode();
  Node& node = nodes_[idx];
  node.time = when;
  node.seq = next_seq_++;
  node.state = NodeState::kArmed;
  node.fn = std::move(fn);
  const std::uint64_t handle = makeHandle(idx, node.generation);
  place(idx);
  ++live_events_;
  ++stats_.scheduled;
  if (live_events_ > stats_.peak_live) stats_.peak_live = live_events_;
  return EventId{handle};
}

void Engine::place(std::uint32_t idx) {
  Node& node = nodes_[idx];
  const std::int64_t ord = ordinalOf(node.time);
  if (ord <= current_ord_) {
    // Bucket already reached (or time lands inside it): straight to the
    // sorted tier.
    pushCurrent(HeapEntry{node.time, node.seq, idx});
  } else if (ord < current_ord_ + num_buckets_) {
    const auto bucket = static_cast<std::size_t>(ord & (num_buckets_ - 1));
    node.next = buckets_[bucket];
    buckets_[bucket] = idx;
    ++wheel_count_;
  } else {
    overflow_.push(HeapEntry{node.time, node.seq, idx});
    ++stats_.overflow_scheduled;
  }
}

void Engine::pushCurrent(HeapEntry entry) {
  current_.push_back(entry);
  std::push_heap(current_.begin(), current_.end(), std::greater<>{});
}

Engine::HeapEntry Engine::popCurrent() {
  std::pop_heap(current_.begin(), current_.end(), std::greater<>{});
  const HeapEntry entry = current_.back();
  current_.pop_back();
  return entry;
}

bool Engine::cancel(EventId id) {
  const std::uint32_t idx = slotOf(id.value);
  if (idx == 0 || idx >= nodes_.size()) return false;
  Node& node = nodes_[idx];
  // Handle-generation safety: a handle whose generation still matches its
  // slot must never observe the slot recycled into the free list — that
  // would mean a slot was freed without bumping the generation, and a
  // later cancel through this handle could kill an unrelated event.
  ROBUSTORE_CHECKED_EXPECTS(
      node.generation != genOf(id.value) || node.state != NodeState::kFree,
      "event handle generation matches a freed slot");
  if (node.generation != genOf(id.value) ||
      node.state != NodeState::kArmed) {
    return false;
  }
  // Lazy cancellation: the node stays threaded in whichever tier holds it
  // and is reclaimed when that tier reaches it.
  node.state = NodeState::kDead;
  node.fn.reset();
  --live_events_;
  ++stats_.cancelled;
  return true;
}

bool Engine::refill() {
  for (;;) {
    while (!current_.empty() &&
           nodes_[current_.front().idx].state == NodeState::kDead) {
      freeNode(popCurrent().idx);
    }
    if (!current_.empty()) return true;
    if (wheel_count_ == 0 && overflow_.empty()) return false;
    advanceWheel();
  }
}

void Engine::advanceWheel() {
  if (wheel_count_ == 0) {
    // Wheel is empty: fast-forward. Re-anchor the window at the earliest
    // overflow event instead of stepping through empty buckets.
    while (!overflow_.empty() &&
           nodes_[overflow_.top().idx].state == NodeState::kDead) {
      freeNode(overflow_.top().idx);
      overflow_.pop();
    }
    if (overflow_.empty()) return;  // refill() re-checks and reports empty
    const HeapEntry top = overflow_.top();
    overflow_.pop();
    current_ord_ = ordinalOf(top.time);
    pushCurrent(top);
    drainOverflow();
    return;
  }
  ++current_ord_;
  harvestBucket(current_ord_ & (num_buckets_ - 1));
  drainOverflow();
}

void Engine::harvestBucket(std::int64_t bucket) {
  // The window invariant guarantees this chain holds exactly the events
  // of ordinal current_ord_; chain order is arbitrary, so heapify sorts
  // them back into deterministic (time, seq) order. current_ is empty
  // here (refill() only advances once it has drained).
  std::uint32_t idx = buckets_[static_cast<std::size_t>(bucket)];
  buckets_[static_cast<std::size_t>(bucket)] = 0;
  while (idx != 0) {
    Node& node = nodes_[idx];
    const std::uint32_t next = node.next;
    node.next = 0;
    --wheel_count_;
    if (node.state == NodeState::kDead) {
      freeNode(idx);
    } else {
      current_.push_back(HeapEntry{node.time, node.seq, idx});
    }
    idx = next;
  }
  std::make_heap(current_.begin(), current_.end(), std::greater<>{});
}

void Engine::drainOverflow() {
  const std::int64_t limit = current_ord_ + num_buckets_;
  while (!overflow_.empty()) {
    const HeapEntry top = overflow_.top();
    if (nodes_[top.idx].state == NodeState::kDead) {
      overflow_.pop();
      freeNode(top.idx);
      continue;
    }
    if (ordinalOf(top.time) >= limit) break;
    overflow_.pop();
    Node& node = nodes_[top.idx];
    const std::int64_t ord = ordinalOf(node.time);
    if (ord <= current_ord_) {
      pushCurrent(top);
    } else {
      const auto bucket = static_cast<std::size_t>(ord & (num_buckets_ - 1));
      node.next = buckets_[bucket];
      buckets_[bucket] = top.idx;
      ++wheel_count_;
    }
  }
}

void Engine::maybeResizeWheel() {
  const SimTime elapsed = now_ - now_at_last_check_;
  const std::uint64_t fired_since = stats_.fired - fired_at_last_check_;
  now_at_last_check_ = now_;
  fired_at_last_check_ = stats_.fired;
  // A rebuild walks the whole wheel, so space checks at least that far
  // apart — the resize stays amortised O(1) per dispatched event.
  next_geometry_check_ =
      stats_.fired + std::max<std::uint64_t>(kGeometryCheckInterval,
                                             wheel_count_);
  if (elapsed <= 0.0 || fired_since == 0) return;
  // Brown's fit: a couple of events per bucket at the observed density.
  const double target =
      std::clamp(2.0 * elapsed / static_cast<double>(fired_since),
                 kMinBucketWidth, kMaxBucketWidth);
  // Track the pending set with the bucket count so the horizon
  // (buckets x width ≈ 2 x live inter-fire gaps) keeps covering the
  // live population; only-grow-at-2x / only-shrink-at-4x hysteresis
  // stops the count flapping between neighbouring powers of two.
  const auto live = static_cast<std::int64_t>(live_events_);
  std::int64_t target_buckets = num_buckets_;
  if (live > 2 * num_buckets_) {
    while (target_buckets < kMaxBuckets && target_buckets < live) {
      target_buckets <<= 1;
    }
  } else if (live < num_buckets_ / 4) {
    while (target_buckets > kMinBuckets && live * 4 < target_buckets) {
      target_buckets >>= 1;
    }
  }
  if (target_buckets == num_buckets_ && target > bucket_width_ * 0.5 &&
      target < bucket_width_ * 2.0) {
    return;
  }
  rebuildWheel(target, target_buckets);
}

void Engine::rebuildWheel(double new_width, std::int64_t new_buckets) {
  // Collect every armed node off the wheel. Chain order is irrelevant:
  // placement is a pure function of (time, width), and firing order is
  // re-established at harvest, so a rebuild cannot reorder anything.
  std::vector<std::uint32_t> armed;
  armed.reserve(wheel_count_);
  for (auto& head : buckets_) {
    std::uint32_t idx = head;
    head = 0;
    while (idx != 0) {
      const std::uint32_t next = nodes_[idx].next;
      nodes_[idx].next = 0;
      if (nodes_[idx].state == NodeState::kDead) {
        freeNode(idx);
      } else {
        armed.push_back(idx);
      }
      idx = next;
    }
  }
  wheel_count_ = 0;
  if (new_buckets != num_buckets_) {
    num_buckets_ = new_buckets;
    buckets_.assign(static_cast<std::size_t>(new_buckets), 0);
  }
  bucket_width_ = new_width;
  inv_bucket_width_ = 1.0 / new_width;
  current_ord_ = ordinalOf(now_);
  for (const std::uint32_t idx : armed) place(idx);
  ++stats_.wheel_resizes;
}

std::size_t Engine::run() {
  return runLoop(std::numeric_limits<SimTime>::infinity());
}

std::size_t Engine::runUntil(SimTime deadline) {
  const std::size_t fired = runLoop(deadline);
  // Advance the clock to the boundary the bounded run actually reached:
  // min(deadline, next live event). Without this, now() reports the last
  // *fired* event's time, and callers that schedule relative to "now"
  // after a bounded run (multi-client pacing, background workload) are
  // silently early. stop() interrupts mid-run, so it must not advance.
  if (!stopped_) {
    SimTime target = deadline;
    if (refill() && current_.front().time < target) {
      target = current_.front().time;
    }
    if (target > now_ && target < std::numeric_limits<SimTime>::infinity()) {
      now_ = target;
      if (time_observer_) time_observer_(now_);
    }
  }
  return fired;
}

std::size_t Engine::runLoop(SimTime deadline) {
  stopped_ = false;  // stop() requests apply to the current run only
  std::size_t fired = 0;
  while (!stopped_) {
    if (!refill()) break;
    const HeapEntry top = current_.front();
    if (top.time > deadline) break;
    // Dispatch-order audit: the tiered queue must never surface an event
    // earlier than the clock — a violation means a bucket was harvested
    // out of order and the deterministic (time, seq) total order is gone.
    ROBUSTORE_CHECKED_EXPECTS(top.time >= now_,
                              "event dispatched before the clock");
    popCurrent();
    if (top.time > now_) {
      now_ = top.time;
      if (time_observer_) time_observer_(now_);
    }
    SmallFn<> fn = std::move(nodes_[top.idx].fn);
    freeNode(top.idx);
    --live_events_;
    {
      const telemetry::HostProfiler::Scope profile(
          telemetry::HostScope::kEngineDispatch);
      fn();
    }
    ++fired;
    ++stats_.fired;
    if (stats_.fired >= next_geometry_check_) maybeResizeWheel();
  }
  return fired;
}

}  // namespace robustore::sim
