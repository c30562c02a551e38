#include "telemetry/sampler.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/expects.hpp"

namespace robustore::telemetry {

PeriodicSampler::PeriodicSampler(SimTime dt, Timeline& timeline,
                                 trace::Tracer* tracer, std::uint32_t track)
    : dt_(dt), timeline_(&timeline), tracer_(tracer), track_(track) {
  ROBUSTORE_EXPECTS(dt > 0.0, "sampler needs a positive interval");
  next_ = dt_;
}

void PeriodicSampler::addProbe(std::string_view name, Probe probe) {
  Entry e;
  e.series = &timeline_->series(name);
  e.trace_name = tracer_ != nullptr ? tracer_->intern(name) : nullptr;
  e.probe = std::move(probe);
  entries_.push_back(std::move(e));
}

void PeriodicSampler::onTimeAdvance(SimTime now) {
  if (now < next_) return;
  // Grid points stay anchored at integer multiples of dt regardless of
  // how the clock jumps; sample the first pending point and (when the
  // advance crossed several) the last one.
  const double steps = std::floor((now - next_) / dt_);
  const SimTime first = next_;
  const SimTime last = next_ + steps * dt_;
  sampleAt(first);
  if (last > first) sampleAt(last);
  next_ = last + dt_;
}

void PeriodicSampler::sampleNow(SimTime at) {
  if (last_sampled_ && at <= *last_sampled_) return;
  sampleAt(at);
  if (at >= next_) {
    next_ = (std::floor(at / dt_) + 1.0) * dt_;
  }
}

void PeriodicSampler::sampleAt(SimTime at) {
  last_sampled_ = at;
  for (Entry& e : entries_) {
    const double value = e.probe(at);
    e.series->add(at, value);
    if (tracer_ != nullptr) {
      tracer_->counter(e.trace_name, at, value, track_);
    }
  }
}

}  // namespace robustore::telemetry
