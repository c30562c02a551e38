#include "net/link.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace robustore::net {

Link::Link(sim::Engine& engine, SimTime round_trip, double bandwidth)
    : engine_(&engine), rtt_(round_trip), bandwidth_(bandwidth) {
  ROBUSTORE_EXPECTS(round_trip >= 0, "negative round-trip latency");
  ROBUSTORE_EXPECTS(bandwidth >= 0, "negative bandwidth");
}

SimTime Link::reserveSend(Bytes bytes) {
  return reserveSendFrom(engine_->now(), bytes);
}

SimTime Link::reserveSendFrom(SimTime earliest, Bytes bytes) {
  const SimTime start =
      std::max({engine_->now(), earliest, busy_until_});
  const SimTime xfer =
      bandwidth_ > 0 ? static_cast<double>(bytes) / bandwidth_ : 0.0;
  busy_until_ = start + xfer;
  return busy_until_ + oneWayLatency();
}

SimTime Link::reserveSend(Bytes bytes, std::uint64_t stream) {
  return reserveSendFrom(engine_->now(), bytes, stream);
}

SimTime Link::reserveSendFrom(SimTime earliest, Bytes bytes,
                              std::uint64_t stream) {
  const SimTime start =
      std::max({engine_->now(), earliest, busy_until_});
  const SimTime arrival = reserveSendFrom(earliest, bytes);
  if (tracer_ != nullptr) {
    tracer_->span(trace::Stage::kNetTransfer, start, arrival, stream, track_);
  }
  return arrival;
}

SimTime Link::controlArrival() const { return engine_->now() + oneWayLatency(); }

Bytes Link::inFlightBytes() const {
  if (bandwidth_ <= 0.0 || busy_until_ <= engine_->now()) return 0;
  return static_cast<Bytes>((busy_until_ - engine_->now()) * bandwidth_);
}

}  // namespace robustore::net
