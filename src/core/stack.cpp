#include "core/stack.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/expects.hpp"

namespace robustore::core {

Stack::Stack(const client::ClusterConfig& config, Rng cluster_rng)
    : cluster_(engine_, config, std::move(cluster_rng)) {}

void Stack::observe(bool trace, bool flight,
                    const trace::FlightRecorderConfig& flight_config) {
  if (!trace && !flight) return;
  recorder_.emplace(flight_config);
  tracer_.emplace(trace);
  tracer_->setSink(&*recorder_);
  cluster_.attachTracer(&*tracer_);
}

telemetry::PeriodicSampler& Stack::sample(SimTime dt,
                                          telemetry::Timeline& timeline) {
  sampler_.emplace(dt, timeline, tracer());
  engine_.setTimeObserver(
      [&s = *sampler_](SimTime now) { s.onTimeAdvance(now); });
  return *sampler_;
}

fault::FaultInjector& Stack::injectFaults(std::vector<std::uint32_t> roster) {
  roster_ = std::move(roster);
  injector_.emplace(engine_, [this](std::uint32_t i) -> disk::Disk& {
    return cluster_.disk(rosterDisk(i));
  });
  injector_->setTracer(tracer());
  return *injector_;
}

repair::RepairService& Stack::addRepair(const repair::RepairConfig& config) {
  return repair_.emplace(cluster_, config);
}

void Stack::repairOnChurn(std::function<void(std::uint32_t)> on_replacement) {
  ROBUSTORE_EXPECTS(injector_.has_value(), "churn wiring needs an injector");
  injector_->setChurnListener(
      [this, on_replacement = std::move(on_replacement)](
          const fault::ChurnEvent& ev) {
        const std::uint32_t global = rosterDisk(ev.disk);
        if (ev.kind == fault::ChurnEventKind::kPermanentFailure) {
          if (repair_) repair_->onDiskFailed(global);
          return;
        }
        if (on_replacement) on_replacement(ev.disk);
        if (repair_) repair_->onDiskReplaced(global);
      });
}

namespace {

/// One session and its place in its client's sequence. The session lives
/// behind a pointer because in-flight callbacks bind it by reference.
struct Slot {
  std::uint32_t client = 0;
  std::uint32_t index = 0;
  bool begun = false;
  bool collected = false;
  std::unique_ptr<client::Scheme::Session> session =
      std::make_unique<client::Scheme::Session>();
};

}  // namespace

void ClientLoop::run(Stack& stack) const {
  ROBUSTORE_EXPECTS(accesses >= 1, "a client loop needs an access");
  sim::Engine& engine = stack.engine();
  const auto n = static_cast<std::uint32_t>(schemes.size());
  std::vector<Slot> current(n);  // each client's latest session
  std::vector<Slot> retired;
  bool over = false;
  const auto view = [](const Slot& s) {
    return Access{s.client, s.index, *s.session, s.begun};
  };

  std::function<void(std::uint32_t)> start;
  const auto finish = [&](std::uint32_t i) {
    Slot& s = current[i];
    schemes[i]->cancelOutstanding(*s.session);
    s.collected = end(view(s));
    if (s.index + 1 == accesses || over) return;
    // Drained retirees already collected are reaped here, so the list
    // stays proportional to in-flight work, not to campaign length.
    std::erase_if(retired, [](const Slot& r) {
      return r.collected && r.session->live_requests == 0;
    });
    const std::uint32_t next = s.index + 1;
    retired.push_back(std::move(s));
    s = Slot{.client = i, .index = next};
    engine.schedule(think, [&start, i] { start(i); });
  };
  start = [&](std::uint32_t i) {
    if (over) return;
    Slot& s = current[i];
    client::StoredFile* file = begin(view(s));
    if (file == nullptr) {
      engine.schedule(retry, [&start, i] { start(i); });
      return;
    }
    s.begun = true;
    s.session->on_complete = [&finish, i] { finish(i); };
    schemes[i]->beginRead(*s.session, *file, access);
  };

  // One batched start storm; at t = 0 its order (time, seq) is that of
  // one schedule call per client.
  std::vector<sim::Engine::BatchEvent> storm;
  storm.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    current[i].client = i;
    storm.push_back({stagger * i, [&start, i] { start(i); }});
  }
  engine.scheduleBatch(storm);

  engine.runUntil(deadline);
  over = true;
  for (Slot& s : current) {
    if (s.begun) schemes[s.client]->abortRead(*s.session);
  }
  for (Slot& s : retired) schemes[s.client]->abortRead(*s.session);
  engine.run();
  for (client::Scheme* scheme : schemes) scheme->auditDrained();

  std::vector<const Slot*> left;
  for (const auto* group : {&retired, &current}) {
    for (const Slot& s : *group) {
      if (!s.collected) left.push_back(&s);
    }
  }
  std::ranges::sort(left, [](const Slot* a, const Slot* b) {
    return std::pair(a->client, a->index) < std::pair(b->client, b->index);
  });
  for (const Slot* s : left) collect(view(*s));
}

}  // namespace robustore::core
