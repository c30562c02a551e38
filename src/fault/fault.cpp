#include "fault/fault.hpp"

#include "common/expects.hpp"

namespace robustore::fault {

void FaultInjector::schedule(const FaultSpec& spec) {
  ROBUSTORE_EXPECTS(spec.at >= 0.0, "fault scheduled in the past");
  ++scheduled_;
  engine_->schedule(spec.at, [this, spec] { apply(spec); });
}

void FaultInjector::scheduleAll(const std::vector<FaultSpec>& specs) {
  std::vector<sim::Engine::BatchEvent> batch;
  batch.reserve(specs.size());
  for (const FaultSpec& spec : specs) {
    ROBUSTORE_EXPECTS(spec.at >= 0.0, "fault scheduled in the past");
    ++scheduled_;
    batch.push_back({spec.at, [this, spec] { apply(spec); }});
  }
  engine_->scheduleBatch(batch);
}

void FaultInjector::apply(const FaultSpec& spec) {
  disk::Disk& d = resolve_(spec.disk);
  ++injected_[static_cast<std::size_t>(spec.kind)];
  if (tracer_ != nullptr) {
    static const char* const kInjectNames[] = {
        "fault.inject.fail_stop", "fault.inject.crash_recover",
        "fault.inject.transient_stall", "fault.inject.slow_disk"};
    tracer_->instant(kInjectNames[static_cast<std::size_t>(spec.kind)],
                     engine_->now(), /*access=*/0, trace::kFaultTrack,
                     d.id());
  }
  DiskFaultState& st = state_[spec.disk];
  switch (spec.kind) {
    case FaultKind::kFailStop:
      st.permanent = true;
      d.failStop();
      break;
    case FaultKind::kCrashRecover: {
      // Overlapping outages merge: keep the latest end, recover once.
      const SimTime until = engine_->now() + spec.duration;
      if (until > st.down_until) st.down_until = until;
      d.failStop();
      engine_->schedule(spec.duration,
                        [this, disk = spec.disk] { maybeRecover(disk); });
      break;
    }
    case FaultKind::kTransientStall:
      // A stall on a dead disk is subsumed by the outage.
      if (!d.failed()) d.stall(spec.duration);
      break;
    case FaultKind::kSlowDisk:
      d.setServiceMultiplier(spec.service_multiplier);
      break;
  }
}

void FaultInjector::maybeRecover(std::uint32_t disk) {
  auto it = state_.find(disk);
  if (it != state_.end()) {
    if (it->second.permanent) return;            // fail-stop wins
    if (engine_->now() < it->second.down_until)  // a later outage extends
      return;
  }
  resolve_(disk).recover();
}

void FaultInjector::scheduleChurn(const std::vector<ChurnEvent>& events) {
  std::vector<sim::Engine::BatchEvent> batch;
  batch.reserve(events.size());
  for (const ChurnEvent& event : events) {
    ROBUSTORE_EXPECTS(event.at >= 0.0, "churn event scheduled in the past");
    batch.push_back({event.at, [this, event] { applyChurn(event); }});
  }
  engine_->scheduleBatch(batch);
}

void FaultInjector::applyChurn(const ChurnEvent& event) {
  disk::Disk& d = resolve_(event.disk);
  if (tracer_ != nullptr) {
    tracer_->instant(event.kind == ChurnEventKind::kPermanentFailure
                         ? "fault.inject.churn_failure"
                         : "fault.inject.churn_replacement",
                     engine_->now(), /*access=*/0, trace::kFaultTrack,
                     d.id());
  }
  switch (event.kind) {
    case ChurnEventKind::kPermanentFailure:
      ++churn_failures_;
      state_[event.disk].permanent = true;
      d.failStop();
      break;
    case ChurnEventKind::kReplacement:
      // Fresh hardware in the slot: supersedes every prior fault on it,
      // including a scripted kFailStop (the dead unit was carted away).
      ++churn_replacements_;
      state_[event.disk] = DiskFaultState{};
      d.recover();
      break;
  }
  if (churn_listener_) churn_listener_(event);
}

void FaultInjector::scheduleCorruption(const std::vector<CorruptionSpec>& specs) {
  std::vector<sim::Engine::BatchEvent> batch;
  batch.reserve(specs.size());
  for (const CorruptionSpec& spec : specs) {
    ROBUSTORE_EXPECTS(spec.at >= 0.0, "corruption scheduled in the past");
    batch.push_back({spec.at, [this, spec] { applyCorruption(spec); }});
  }
  engine_->scheduleBatch(batch);
}

void FaultInjector::applyCorruption(const CorruptionSpec& spec) {
  ++corruptions_injected_;
  if (tracer_ != nullptr) {
    tracer_->instant("fault.inject.corrupt_block", engine_->now(),
                     /*access=*/0, trace::kFaultTrack,
                     resolve_(spec.disk).id(), spec.block);
  }
  ROBUSTORE_EXPECTS(corruption_applier_ != nullptr,
                    "corruption fired without an applier");
  corruption_applier_(spec);
}

std::vector<ChurnEvent> FaultInjector::drawChurn(const ChurnModel& model,
                                                 std::uint32_t num_disks,
                                                 Rng& rng) {
  std::vector<ChurnEvent> out;
  if (!model.enabled()) return out;
  const double mean_life = 1.0 / model.failure_rate;
  for (std::uint32_t d = 0; d < num_disks; ++d) {
    Rng stream = rng.fork(d);  // one parent draw per disk, like fork()
    SimTime t = 0.0;
    for (;;) {
      t += stream.exponential(mean_life);
      if (t >= model.horizon) break;
      out.push_back({d, ChurnEventKind::kPermanentFailure, t});
      t += model.replacement_delay;
      out.push_back({d, ChurnEventKind::kReplacement, t});
    }
  }
  return out;
}

std::uint32_t FaultInjector::injectedTotal() const {
  return injected_[0] + injected_[1] + injected_[2] + injected_[3];
}

std::vector<FaultSpec> FaultInjector::drawSchedule(const FaultModel& model,
                                                   std::uint32_t num_disks,
                                                   Rng& rng) {
  std::vector<FaultSpec> out;
  for (std::uint32_t d = 0; d < num_disks; ++d) {
    // Fixed draw count per disk: every branch consumes the same stream
    // positions, so one disk's outcome never shifts another's schedule.
    const double u_fail = rng.uniform();
    const double u_crash = rng.uniform();
    const double u_stall = rng.uniform();
    const double u_straggle = rng.uniform();
    const double at = rng.uniform() * model.horizon;
    const double outage = rng.exponential(model.mean_outage);
    const double stall = rng.exponential(model.mean_stall);
    const double mult =
        rng.uniform(model.straggler_min, model.straggler_max);

    FaultSpec spec;
    spec.disk = d;
    if (u_fail < model.fail_stop_prob) {
      spec.kind = FaultKind::kFailStop;
      spec.at = at;
    } else if (u_crash < model.crash_prob) {
      spec.kind = FaultKind::kCrashRecover;
      spec.at = at;
      spec.duration = outage;
    } else if (u_stall < model.stall_prob) {
      spec.kind = FaultKind::kTransientStall;
      spec.at = at;
      spec.duration = stall;
    } else if (u_straggle < model.straggler_prob) {
      spec.kind = FaultKind::kSlowDisk;
      spec.at = 0.0;  // stragglers are slow from the start
      spec.service_multiplier = mult;
    } else {
      continue;  // this disk stays healthy
    }
    out.push_back(spec);
  }
  return out;
}

}  // namespace robustore::fault
