#include "chaos/campaign.hpp"

#include <bit>
#include <functional>
#include <memory>
#include <utility>

#include "client/cluster.hpp"
#include "client/robustore_scheme.hpp"
#include "client/scheme.hpp"
#include "client/stored_file.hpp"
#include "coding/lt_codec.hpp"
#include "common/expects.hpp"
#include "common/rng.hpp"
#include "core/stack.hpp"
#include "fault/fault.hpp"
#include "repair/repair.hpp"
#include "sim/engine.hpp"

namespace robustore::chaos {

namespace {

/// FNV-1a over the run's observables: the digest two replays of one plan
/// must agree on bit-for-bit.
struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ULL;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ (v & 0xffu)) * 1099511628211ULL;
      v >>= 8;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    for (const char c : s) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    mix(static_cast<std::uint64_t>(s.size()));
  }
};

/// Is the file's data reachable right now (live, uncorrupted placements
/// suffice to reconstruct every original block)? Used two ways: as the
/// at-failure-time exemption test, and — via plan-projected placement
/// deaths — as the worst-case decodability bound that decides whether a
/// repair loss event was legitimate. `placement_dead` answers "is
/// placement p unusable".
bool dataUnreachable(client::SchemeKind scheme, const client::StoredFile& file,
                     const std::function<bool(std::uint32_t)>& placement_dead) {
  const auto pos_bad = [&](std::uint32_t p, std::uint32_t pos) {
    return placement_dead(p) || file.isCorrupt(p, pos);
  };
  switch (scheme) {
    case client::SchemeKind::kRaid0: {
      // Every stored block is required: any dead placement or corrupt
      // flag makes some block unreachable.
      for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
        if (placement_dead(p)) return true;
      }
      return file.corruptCount() != 0;
    }
    case client::SchemeKind::kRRaidS:
    case client::SchemeKind::kRRaidA: {
      std::vector<std::uint8_t> covered(file.k, 0);
      for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
        const auto& stored = file.placements[p].stored;
        for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
          if (!pos_bad(p, pos)) {
            covered[static_cast<std::uint32_t>(stored[pos]) % file.k] = 1;
          }
        }
      }
      for (std::uint32_t b = 0; b < file.k; ++b) {
        if (covered[b] == 0) return true;
      }
      return false;
    }
    case client::SchemeKind::kRobuStore: {
      ROBUSTORE_EXPECTS(file.lt_graph != nullptr,
                        "RobuSTore file without an LT graph");
      coding::LtDecoder decoder(*file.lt_graph);  // ID mode
      for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
        const auto& stored = file.placements[p].stored;
        for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
          if (!pos_bad(p, pos)) {
            (void)decoder.addSymbol(static_cast<std::uint32_t>(stored[pos]));
          }
        }
      }
      return !decoder.complete();
    }
  }
  return false;
}

/// Worst-case projection: every placement a destructive event ever
/// touches is treated as fully gone at once (corruption counts — repair
/// granularity escalates one bad block to the whole slot).
bool worstCaseUndecodable(const CampaignPlan& plan,
                          const client::StoredFile& file) {
  std::vector<std::uint8_t> dead(plan.disks_per_access, 0);
  for (const ChaosEvent& e : plan.events) {
    if (e.verb == ChaosVerb::kFailStop || e.verb == ChaosVerb::kChurnFail ||
        e.verb == ChaosVerb::kCorruptBlock) {
      dead[e.disk % plan.disks_per_access] = 1;
    }
  }
  return dataUnreachable(plan.scheme, file, [&](std::uint32_t p) {
    return dead[p % dead.size()] != 0;
  });
}

}  // namespace

CampaignResult runCampaign(const CampaignPlan& plan,
                           const InvariantRegistry& registry) {
  ROBUSTORE_EXPECTS(plan.accesses > 0, "campaign needs at least one access");
  client::ClusterConfig cc;
  cc.num_servers = plan.num_servers;
  cc.server.disks_per_server = plan.disks_per_server;
  core::Stack stack(cc, Rng(plan.seed ^ core::salt::kCluster));
  sim::Engine& engine = stack.engine();
  client::Cluster& cluster = stack.cluster();

  // The clock check owns the engine's time-observer slot (the stack
  // samples no telemetry here).
  bool clock_monotone = true;
  SimTime last_time = 0.0;
  engine.setTimeObserver([&](SimTime t) {
    if (t < last_time) clock_monotone = false;
    last_time = t;
  });

  auto scheme = client::makeScheme(plan.scheme, cluster, coding::LtParams{});
  auto* robu = dynamic_cast<client::RobuStoreScheme*>(scheme.get());

  client::AccessConfig acfg;
  acfg.block_bytes = plan.block_bytes;
  acfg.k = plan.k;
  acfg.redundancy = plan.redundancy;
  acfg.request_timeout = plan.access.request_timeout;
  acfg.max_reissues = plan.access.max_reissues;
  acfg.reissue_delay = plan.access.reissue_delay;
  acfg.reissue_backoff = plan.access.reissue_backoff;
  // The injected-bug knob: dropping the clamp replays the pre-fix
  // unbounded exponential backoff.
  acfg.max_reissue_delay =
      plan.unclamped_backoff ? 1e18 : plan.access.max_reissue_delay;
  acfg.heal_on_read = plan.scheme != client::SchemeKind::kRaid0;

  Rng trial_rng = streamRng(plan.seed, 0);
  const std::vector<std::uint32_t> roster =
      cluster.selectDisks(plan.disks_per_access, trial_rng);
  client::LayoutPolicy policy;
  policy.heterogeneous = false;
  client::StoredFile file = scheme->planFile(acfg, roster, policy, trial_rng);

  const bool worst_case_undecodable = worstCaseUndecodable(plan, file);

  // Background repair for every redundant scheme. The horizon stops the
  // periodic scan from self-rescheduling forever in the final drain.
  if (plan.scheme != client::SchemeKind::kRaid0) {
    repair::RepairConfig rcfg;
    rcfg.scan_interval = plan.scan_interval;
    rcfg.bandwidth_budget = plan.repair_budget;
    rcfg.horizon = plan.deadline;
    repair::RepairService& svc = stack.addRepair(rcfg);
    repair::RepairPolicy rpolicy;
    rpolicy.k = plan.k;
    switch (plan.scheme) {
      case client::SchemeKind::kRRaidS:
        rpolicy.klass = repair::RedundancyClass::kReplication;
        break;
      case client::SchemeKind::kRRaidA:
        rpolicy.klass = repair::RedundancyClass::kMds;
        rpolicy.regenerating = true;  // Dimakis partial helper reads
        break;
      default:
        rpolicy.klass = repair::RedundancyClass::kLt;
        break;
    }
    svc.protect(file, rpolicy);
    svc.start();
  }
  repair::RepairService* svc = stack.repair();

  // Fault index i targets the file's placement i (placements follow the
  // roster).
  fault::FaultInjector& injector = stack.injectFaults(roster);

  // Corruption lands on the file layer: flag the stored block so the
  // reader's checksum rejects it, then tell repair the slot is damaged.
  injector.setCorruptionApplier(
      [&file, svc](const fault::CorruptionSpec& spec) {
        const std::uint32_t p =
            spec.disk % static_cast<std::uint32_t>(file.placements.size());
        const auto& stored = file.placements[p].stored;
        if (stored.empty()) return;
        file.corruptBlock(
            p, spec.block % static_cast<std::uint32_t>(stored.size()));
        if (svc != nullptr) svc->onBlockCorrupted(file, p);
      });

  // Churn: a replacement arrives *empty*, which the file layer models as
  // every previously stored block on the slot being unreadable (corrupt)
  // until a repair or restore rewrites it.
  stack.repairOnChurn([&file](std::uint32_t disk) {
    const std::uint32_t p =
        disk % static_cast<std::uint32_t>(file.placements.size());
    const auto& stored = file.placements[p].stored;
    for (std::uint32_t pos = 0; pos < stored.size(); ++pos) {
      file.corruptBlock(p, pos);
    }
  });

  std::vector<fault::FaultSpec> specs;
  std::vector<fault::ChurnEvent> churn;
  std::vector<fault::CorruptionSpec> corruptions;
  for (const ChaosEvent& e : plan.events) {
    switch (e.verb) {
      case ChaosVerb::kFailStop:
      case ChaosVerb::kCrashRecover:
      case ChaosVerb::kStall:
      case ChaosVerb::kSlowDisk: {
        fault::FaultSpec spec;
        spec.disk = e.disk;
        spec.at = e.at;
        spec.duration = e.duration;
        spec.service_multiplier = e.multiplier;
        spec.kind = e.verb == ChaosVerb::kFailStop ? fault::FaultKind::kFailStop
                    : e.verb == ChaosVerb::kCrashRecover
                        ? fault::FaultKind::kCrashRecover
                    : e.verb == ChaosVerb::kStall
                        ? fault::FaultKind::kTransientStall
                        : fault::FaultKind::kSlowDisk;
        specs.push_back(spec);
        break;
      }
      case ChaosVerb::kChurnFail:
        churn.push_back({e.disk, fault::ChurnEventKind::kPermanentFailure,
                         e.at});
        break;
      case ChaosVerb::kChurnReplace:
        churn.push_back({e.disk, fault::ChurnEventKind::kReplacement, e.at});
        break;
      case ChaosVerb::kCorruptBlock:
        corruptions.push_back({e.disk, e.block, e.at});
        break;
    }
  }
  injector.scheduleAll(specs);
  injector.scheduleChurn(churn);
  injector.scheduleCorruption(corruptions);
  // Scripted fail-stops bypass the churn listener, so pair each with its
  // own repair notification. Scheduled after the injector batches: same
  // timestamp, later sequence number — the disk is down when it fires.
  if (svc != nullptr) {
    for (const ChaosEvent& e : plan.events) {
      if (e.verb != ChaosVerb::kFailStop) continue;
      const std::uint32_t global = stack.rosterDisk(e.disk);
      engine.schedule(e.at, [svc, global] { svc->onDiskFailed(global); });
    }
  }

  // Real decoded bytes for RobuSTore reads: deterministic original data,
  // streamed through the LT data plane and byte-verified on completion.
  if (robu != nullptr) {
    auto data = std::make_shared<std::vector<std::uint8_t>>(
        acfg.dataBytes());
    Rng fill(plan.seed ^ core::salt::kChaosData);
    for (std::size_t i = 0; i < data->size(); i += 8) {
      const std::uint64_t word = fill();
      for (std::size_t b = 0; b < 8 && i + b < data->size(); ++b) {
        (*data)[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    robu->attachDataPlane({std::move(data), /*streaming=*/true});
  }

  CampaignResult result;
  Observations& obs = result.observations;
  obs.plan = &plan;
  obs.planned = plannedCounts(plan);
  obs.worst_case_undecodable = worst_case_undecodable;
  obs.accesses.resize(plan.accesses);
  for (std::uint32_t i = 0; i < plan.accesses; ++i) {
    obs.accesses[i].index = i;
  }

  const auto placement_dead_now = [&](std::uint32_t p) {
    return cluster.disk(file.placements[p].global_disk).failed();
  };

  // One client reading the file back to back. An access the deadline
  // catches in flight is aborted unterminated, and one it catches before
  // it started never starts: both are the completion invariant's business.
  core::ClientLoop loop{
      .schemes = {scheme.get()},
      .access = acfg,
      .accesses = plan.accesses,
      .think = 0.05,
      .deadline = plan.deadline,
      .begin = [&](const core::ClientLoop::Access& a) {
        obs.accesses[a.index].started = true;
        return &file;
      },
      .end = [&](const core::ClientLoop::Access& a) {
        AccessOutcome& oc = obs.accesses[a.index];
        oc.terminated = true;
        oc.complete = a.session.complete;
        if (!a.session.complete) {
          // Exemption snapshot at failure time: was the data genuinely
          // unreachable when the access gave up?
          oc.failure_exempt =
              dataUnreachable(plan.scheme, file, placement_dead_now);
        } else if (robu != nullptr && robu->dataPlaneReport().has_value()) {
          const auto& report = *robu->dataPlaneReport();
          oc.data_plane_ran = true;
          oc.data_verified = report.verified;
          oc.symbols_fed = report.symbols_fed;
        }
        return false;
      },
      .collect = [&](const core::ClientLoop::Access& a) {
        AccessOutcome& oc = obs.accesses[a.index];
        if (oc.started) {
          oc.metrics = scheme->collect(a.session, file.dataBytes(), file.k);
          oc.corrupt_rejected = a.session.corrupt_rejected;
        }
        obs.live_session_requests += a.session.live_requests;
      },
  };
  loop.run(stack);

  obs.injected_fail_stop = injector.injected(fault::FaultKind::kFailStop);
  obs.injected_crash_recover =
      injector.injected(fault::FaultKind::kCrashRecover);
  obs.injected_stall = injector.injected(fault::FaultKind::kTransientStall);
  obs.injected_slow_disk = injector.injected(fault::FaultKind::kSlowDisk);
  obs.churn_failures = injector.churnFailures();
  obs.churn_replacements = injector.churnReplacements();
  obs.corruptions_injected = injector.corruptionsInjected();

  if (svc != nullptr) {
    obs.repair_active = true;
    obs.repair = svc->stats();
    obs.pending_repairs = svc->pendingRepairs();
    obs.degraded_placements = svc->degradedPlacements();
    for (const std::uint32_t g : roster) {
      obs.roster_disk_failed.push_back(cluster.disk(g).failed() ? 1 : 0);
      obs.roster_meta_up.push_back(cluster.metadata().diskUp(g) ? 1 : 0);
    }
  }
  obs.corrupt_blocks_left = file.corruptCount();
  obs.stored_bytes = file.totalStoredBlocks() * plan.block_bytes;

  obs.pending_events = engine.pendingEvents();
  obs.clock_monotone = clock_monotone;
  for (std::uint32_t s = 0; s < cluster.numServers(); ++s) {
    obs.links_in_flight += cluster.server(s).link().inFlightBytes();
    obs.server_network_bytes += cluster.server(s).networkBytesTotal();
  }
  if (cluster.clientLink() != nullptr) {
    obs.links_in_flight += cluster.clientLink()->inFlightBytes();
  }
  for (const std::uint32_t g : roster) {
    obs.live_disk_requests += cluster.disk(g).liveRequestCount();
  }
  obs.end_time = engine.now();

  result.violations = registry.evaluate(obs);

  Fnv1a fnv;
  fnv.mix(plan.seed);
  for (const AccessOutcome& a : obs.accesses) {
    fnv.mix(static_cast<std::uint64_t>(a.index));
    fnv.mix(static_cast<std::uint64_t>(
        (a.started ? 1 : 0) | (a.terminated ? 2 : 0) | (a.complete ? 4 : 0) |
        (a.failure_exempt ? 8 : 0) | (a.data_verified ? 16 : 0)));
    fnv.mix(static_cast<std::uint64_t>(a.metrics.blocks_received));
    fnv.mix(static_cast<std::uint64_t>(a.metrics.failures_survived));
    fnv.mix(static_cast<std::uint64_t>(a.metrics.reissued_requests));
    fnv.mix(static_cast<std::uint64_t>(a.corrupt_rejected));
    fnv.mix(static_cast<std::uint64_t>(a.symbols_fed));
    fnv.mix(a.metrics.latency);
    fnv.mix(static_cast<std::uint64_t>(a.metrics.network_bytes));
  }
  fnv.mix(static_cast<std::uint64_t>(injector.injectedTotal()));
  fnv.mix(static_cast<std::uint64_t>(obs.churn_failures));
  fnv.mix(static_cast<std::uint64_t>(obs.churn_replacements));
  fnv.mix(static_cast<std::uint64_t>(obs.corruptions_injected));
  fnv.mix(obs.repair.repairs_completed);
  fnv.mix(obs.repair.repairs_aborted);
  fnv.mix(obs.repair.blocks_repaired);
  fnv.mix(static_cast<std::uint64_t>(obs.repair.bytes_read));
  fnv.mix(static_cast<std::uint64_t>(obs.repair.bytes_written));
  fnv.mix(static_cast<std::uint64_t>(obs.corrupt_blocks_left));
  fnv.mix(static_cast<std::uint64_t>(obs.server_network_bytes));
  fnv.mix(obs.end_time);
  fnv.mix(engine.stats().scheduled);
  fnv.mix(engine.stats().fired);
  for (const Violation& v : result.violations) {
    fnv.mix(v.invariant);
    fnv.mix(v.detail);
  }
  result.digest = fnv.hash;
  return result;
}

}  // namespace robustore::chaos
