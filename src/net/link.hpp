#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace robustore::net {

/// Network path between a client and a storage server.
///
/// The paper's model (§6.2.2): bandwidth is presumed plentiful, so the
/// network contributes a fixed round-trip latency per *request*; responses
/// serialise through the server NIC at a finite rate (cache hits are
/// "sent at the maximum network speed"). We model exactly that: a constant
/// one-way latency plus a busy-until serialisation point.
class Link {
 public:
  /// `bandwidth` in bytes/second; 0 means unlimited (pure latency).
  Link(sim::Engine& engine, SimTime round_trip, double bandwidth = 0.0);

  [[nodiscard]] SimTime oneWayLatency() const { return rtt_ / 2; }

  /// Reserves the serialisation point for `bytes` starting no earlier than
  /// now, and returns the absolute time the payload fully arrives at the
  /// other end (serialisation + one-way latency). Does not schedule
  /// anything; the caller owns the delivery event.
  [[nodiscard]] SimTime reserveSend(Bytes bytes);

  /// Like reserveSend, but the payload only becomes available at
  /// `earliest` (it is still arriving from an upstream hop). Used to
  /// chain links: server NIC then the shared client downlink.
  [[nodiscard]] SimTime reserveSendFrom(SimTime earliest, Bytes bytes);

  /// Stream-attributed variants: identical arithmetic, but when a tracer
  /// is attached the reservation emits a net.transfer span for `stream`
  /// covering serialisation start through arrival.
  [[nodiscard]] SimTime reserveSend(Bytes bytes, std::uint64_t stream);
  [[nodiscard]] SimTime reserveSendFrom(SimTime earliest, Bytes bytes,
                                        std::uint64_t stream);

  /// Arrival time of a zero-payload control message sent now.
  [[nodiscard]] SimTime controlArrival() const;

  /// Bytes still serialising through this link right now (reserved work
  /// beyond the current clock, at the link rate). Unlimited links always
  /// report 0 — nothing ever waits on them. Telemetry probe.
  [[nodiscard]] Bytes inFlightBytes() const;

  /// Attaches a tracer and the display track this link's transfers render
  /// on (null tracer = tracing off, the default).
  void setTrace(trace::Tracer* tracer, std::uint32_t track) {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  sim::Engine* engine_;
  SimTime rtt_;
  double bandwidth_;
  SimTime busy_until_ = 0.0;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace robustore::net
