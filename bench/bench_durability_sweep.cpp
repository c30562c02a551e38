// Long-horizon durability sweep: files at rest on a 16-disk cluster while
// a renewal-process churn model permanently kills disks (replacements
// arrive empty) and the background repair service regenerates what was
// lost under a bandwidth budget. Sweeps redundancy class (replication,
// RS-style MDS, LT, and MDS with Dimakis regenerating repair) crossed
// with the per-disk failure rate λ and the redundancy degree D, and
// reports durability nines, an MTTDL estimate, and repair bytes moved
// per re-protected byte — the regenerating column is the payoff: same
// durability as full-decode MDS at a fraction of the repair traffic.
//
//   bench_durability_sweep [--tier smoke|mid|full] [--seed N] [--help]
//
// Every field in BENCH_durability_sweep.json is simulation-deterministic
// (no wall-clock values), so the CI determinism guard diffs the file
// across thread counts directly. Each (sweep point, trial) job is a pure
// function of (seed, point, trial): fresh engine, cluster, files, churn
// schedule and repair service per job, results reduced in index order.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "client/cluster.hpp"
#include "client/scheme.hpp"
#include "client/stored_file.hpp"
#include "common/rng.hpp"
#include "core/run_env.hpp"
#include "core/stack.hpp"
#include "core/trial_pool.hpp"
#include "fault/fault.hpp"
#include "repair/repair.hpp"

namespace {

using namespace robustore;
using bench::appendCount;
using bench::appendNum;

// Small files keep the sweep about failure/repair dynamics, not media
// transfer time: 4 x 64 KiB originals spread over 8 of 16 disks.
constexpr std::uint32_t kNumServers = 4;
constexpr std::uint32_t kDisksPerServer = 4;
constexpr std::uint32_t kFiles = 4;
constexpr std::uint32_t kPlacementsPerFile = 8;
constexpr std::uint32_t kOriginals = 4;  // k
constexpr Bytes kBlockBytes = 64 * kKiB;
constexpr SimTime kReplacementDelay = 120.0;
constexpr SimTime kScanInterval = 10.0;
constexpr SimTime kDrainTail = 600.0;

struct PointSpec {
  const char* label;  // redundancy-class column of the tables
  repair::RedundancyClass klass;
  bool regenerating;
  double redundancy;    // D = N/K - 1
  double failure_rate;  // λ, permanent failures per disk-second
};

struct TrialOut {
  repair::RepairStats stats;
  std::uint32_t churn_failures = 0;
  std::uint32_t churn_replacements = 0;
  std::uint32_t degraded_end = 0;
};

struct RowOut {
  PointSpec spec;
  std::uint64_t loss_events = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t repairs_aborted = 0;
  std::uint64_t blocks_repaired = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t churn_failures = 0;
  std::uint64_t churn_replacements = 0;
  std::uint64_t degraded_end = 0;
  double durability_nines = 0.0;
  double mttdl_estimate = 0.0;  // lower bound when no loss was observed
  bool no_loss = false;
  double repair_bytes_per_lost_byte = 0.0;
};

/// Hand-placed file: `blocks` stored blocks dealt round-robin over the
/// placements, block j carrying id j / `copies`. With copies > 1 that is
/// rotated replication — original i's copies on consecutive placements,
/// ids the original index, so the repair service's coverage test applies
/// directly; with copies = 1 and blocks = k(1 + D), an RS-style MDS file
/// whose distinct coded ids any k of decode.
client::StoredFile buildPlacedFile(client::Cluster& cluster,
                                   std::span<const std::uint32_t> disks,
                                   std::uint32_t blocks, std::uint32_t copies,
                                   Rng& rng) {
  client::StoredFile file;
  file.file_id = cluster.nextFileId();
  file.block_bytes = kBlockBytes;
  file.k = kOriginals;
  file.placements.resize(disks.size());
  const auto P = static_cast<std::uint32_t>(disks.size());
  for (std::uint32_t j = 0; j < blocks; ++j) {
    file.placements[j % P].stored.push_back(j / copies);
  }
  const disk::LayoutConfig layout{1024, 1.0};
  for (std::uint32_t p = 0; p < P; ++p) {
    file.placements[p].global_disk = disks[p];
    file.placements[p].layout = disk::FileDiskLayout::generate(
        static_cast<std::uint32_t>(file.placements[p].stored.size()),
        kBlockBytes, layout, rng);
  }
  return file;
}

TrialOut runTrial(const PointSpec& spec, std::uint32_t point_index,
                  std::uint32_t trial, std::uint64_t seed, SimTime horizon) {
  // Three independent streams per (seed, point, trial): cluster internals,
  // file planning, and the churn draws — so a grid change in one axis
  // never shifts another point's timeline.
  Rng root = streamRng(
      seed, static_cast<std::uint64_t>(point_index) * 131ULL + trial);
  client::ClusterConfig ccfg;
  ccfg.num_servers = kNumServers;
  ccfg.server.disks_per_server = kDisksPerServer;
  core::Stack stack(ccfg, root.fork(0));
  Rng plan_rng = root.fork(1);
  Rng churn_rng = root.fork(2);
  client::Cluster& cluster = stack.cluster();

  repair::RepairConfig rcfg;
  rcfg.scan_interval = kScanInterval;
  rcfg.bandwidth_budget = mbps(32.0);
  rcfg.horizon = horizon;
  repair::RepairService& service = stack.addRepair(rcfg);

  std::vector<client::StoredFile> files;
  files.reserve(kFiles);  // protect() keeps pointers; no reallocation
  const client::LayoutPolicy layout_policy{false, {1024, 1.0}};
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    const auto disks = cluster.selectDisks(kPlacementsPerFile, plan_rng);
    repair::RepairPolicy policy;
    switch (spec.klass) {
      case repair::RedundancyClass::kReplication: {
        const auto copies = std::max<std::uint32_t>(
            2, static_cast<std::uint32_t>(std::lround(1.0 + spec.redundancy)));
        files.push_back(buildPlacedFile(cluster, disks, kOriginals * copies,
                                        copies, plan_rng));
        policy.klass = repair::RedundancyClass::kReplication;
        break;
      }
      case repair::RedundancyClass::kMds:
        files.push_back(buildPlacedFile(
            cluster, disks,
            static_cast<std::uint32_t>(
                std::lround(kOriginals * (1.0 + spec.redundancy))),
            1, plan_rng));
        policy.klass = repair::RedundancyClass::kMds;
        policy.regenerating = spec.regenerating;
        break;
      case repair::RedundancyClass::kLt: {
        const auto scheme = client::makeScheme(client::SchemeKind::kRobuStore,
                                               cluster, coding::LtParams{});
        client::AccessConfig acfg;
        acfg.k = kOriginals;
        acfg.block_bytes = kBlockBytes;
        acfg.redundancy = spec.redundancy;
        files.push_back(
            scheme->planFile(acfg, disks, layout_policy, plan_rng));
        policy.klass = repair::RedundancyClass::kLt;
        break;
      }
    }
    service.protect(files.back(), policy);
  }

  // Churn addresses every cluster disk; failures and replacements flow
  // into the repair service's liveness view.
  fault::FaultInjector& injector = stack.injectFaults();
  stack.repairOnChurn();
  fault::ChurnModel churn;
  churn.failure_rate = spec.failure_rate;
  churn.replacement_delay = kReplacementDelay;
  churn.horizon = horizon;
  injector.scheduleChurn(
      fault::FaultInjector::drawChurn(churn, cluster.numDisks(), churn_rng));

  service.start();
  stack.engine().runUntil(horizon + kDrainTail);  // drain in-flight repairs

  TrialOut out;
  out.stats = service.stats();
  out.churn_failures = injector.churnFailures();
  out.churn_replacements = injector.churnReplacements();
  out.degraded_end = service.degradedPlacements();
  return out;
}

int usage(std::FILE* to, int code) {
  std::fprintf(to,
               "usage: bench_durability_sweep [--tier smoke|mid|full]"
               " [--seed N]\n"
               "  --tier   grid size and horizon: smoke = 1 lambda x 1 D,"
               " 4000 s, 2 trials (CI);\n"
               "           mid = 2 x 2 grid, 20000 s, 4 trials; full ="
               " 3 x 2 grid, 60000 s,\n"
               "           8 trials (default: mid)\n"
               "  --seed N base RNG seed (overrides ROBUSTORE_SEED;"
               " default 42)\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tier = "mid";
  std::uint64_t seed = core::RunEnv::seed(42);
  if (const auto code = bench::parseTierArgs(
          argc, argv, "bench_durability_sweep", usage, tier, seed)) {
    return *code;
  }

  const SimTime horizon =
      tier == "smoke" ? 4000.0 : (tier == "mid" ? 20000.0 : 60000.0);
  const std::uint32_t trials = tier == "smoke" ? 2 : (tier == "mid" ? 4 : 8);
  std::vector<double> lambdas = {2e-3};
  std::vector<double> redundancies = {3.0};
  if (tier != "smoke") {
    lambdas = {5e-4, 2e-3};
    redundancies = {1.0, 3.0};
  }
  if (tier == "full") lambdas = {5e-4, 2e-3, 8e-3};

  struct ClassSpec {
    const char* label;
    repair::RedundancyClass klass;
    bool regenerating;
  };
  const ClassSpec classes[] = {
      {"replication", repair::RedundancyClass::kReplication, false},
      {"rs", repair::RedundancyClass::kMds, false},
      {"lt", repair::RedundancyClass::kLt, false},
      {"regenerating", repair::RedundancyClass::kMds, true},
  };

  std::vector<PointSpec> points;
  for (const ClassSpec& c : classes) {
    for (const double d : redundancies) {
      for (const double lambda : lambdas) {
        points.push_back({c.label, c.klass, c.regenerating, d, lambda});
      }
    }
  }

  std::printf("Durability sweep (%s tier): %u disks, %u files x %u"
              " placements, horizon %.0f s, %u trials\n"
              "churn: Exp(1/lambda) lifetimes, %.0f s replacement delay;"
              " repair: %.0f s scans, 32 MBps budget\n\n",
              tier.c_str(), kNumServers * kDisksPerServer, kFiles,
              kPlacementsPerFile, horizon, trials, kReplacementDelay,
              kScanInterval);
  std::printf("%-13s %4s %8s %7s %7s %7s %8s %8s %10s %12s\n", "class", "D",
              "lambda", "fails", "losses", "nines", "repairs", "aborted",
              "MTTDL s", "rep B/lost B");

  // All (point, trial) jobs fan out across one pool; slot (p * trials + t)
  // is pre-sized so the reduction below reads them in index order.
  std::vector<TrialOut> slots(points.size() * trials);
  core::TrialPool pool;
  pool.forEachIndex(
      static_cast<std::uint32_t>(slots.size()), [&](std::uint32_t i) {
        const std::uint32_t p = i / trials;
        const std::uint32_t t = i % trials;
        slots[i] = runTrial(points[p], p, t, seed, horizon);
      });

  std::vector<RowOut> rows;
  const double file_runs = static_cast<double>(kFiles) * trials;
  const double file_time = file_runs * horizon;
  for (std::size_t p = 0; p < points.size(); ++p) {
    RowOut row;
    row.spec = points[p];
    for (std::uint32_t t = 0; t < trials; ++t) {
      const TrialOut& o = slots[p * trials + t];
      row.loss_events += o.stats.loss_events;
      row.repairs_completed += o.stats.repairs_completed;
      row.repairs_aborted += o.stats.repairs_aborted;
      row.blocks_repaired += o.stats.blocks_repaired;
      row.bytes_read += o.stats.bytes_read;
      row.bytes_written += o.stats.bytes_written;
      row.churn_failures += o.churn_failures;
      row.churn_replacements += o.churn_replacements;
      row.degraded_end += o.degraded_end;
    }
    row.no_loss = row.loss_events == 0;
    if (row.no_loss) {
      // No loss observed: report the resolution limits of the campaign
      // (rule-of-three-flavoured upper bound on the loss probability).
      row.durability_nines = -std::log10(0.5 / file_runs);
      row.mttdl_estimate = file_time;
    } else {
      const double p_loss =
          std::min(1.0, static_cast<double>(row.loss_events) / file_runs);
      row.durability_nines = std::max(0.0, -std::log10(p_loss));
      row.mttdl_estimate = file_time / static_cast<double>(row.loss_events);
    }
    if (row.blocks_repaired > 0) {
      row.repair_bytes_per_lost_byte =
          static_cast<double>(row.bytes_read + row.bytes_written) /
          (static_cast<double>(row.blocks_repaired) * kBlockBytes);
    }
    std::printf("%-13s %4.1f %8.0e %7llu %7llu %6.2f%s %8llu %8llu %10.3g"
                " %12.2f\n",
                row.spec.label, row.spec.redundancy, row.spec.failure_rate,
                static_cast<unsigned long long>(row.churn_failures),
                static_cast<unsigned long long>(row.loss_events),
                row.durability_nines, row.no_loss ? "+" : " ",
                static_cast<unsigned long long>(row.repairs_completed),
                static_cast<unsigned long long>(row.repairs_aborted),
                row.mttdl_estimate, row.repair_bytes_per_lost_byte);
    rows.push_back(row);
  }
  std::printf("\n(nines marked + are campaign resolution limits: no loss"
              " event observed;\n MTTDL is then a lower bound equal to the"
              " total file-time simulated)\n");

  if (const auto dir = core::RunEnv::jsonDir()) {
    std::string out = "{\n  \"id\": \"durability_sweep\",\n  \"tier\": \"" +
                      tier + "\",\n  \"horizon_s\": ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", horizon);
    out += buf;
    out += ",\n  \"trials\": " + std::to_string(trials) +
           ",\n  \"files\": " + std::to_string(kFiles) + ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RowOut& r = rows[i];
      out += "    {\"class\": \"" + std::string(r.spec.label) + "\"";
      appendNum(out, "redundancy", r.spec.redundancy);
      appendNum(out, "failure_rate", r.spec.failure_rate);
      appendCount(out, "churn_failures", r.churn_failures);
      appendCount(out, "churn_replacements", r.churn_replacements);
      appendCount(out, "loss_events", r.loss_events);
      appendCount(out, "repairs_completed", r.repairs_completed);
      appendCount(out, "repairs_aborted", r.repairs_aborted);
      appendCount(out, "blocks_repaired", r.blocks_repaired);
      appendCount(out, "repair_bytes_read", r.bytes_read);
      appendCount(out, "repair_bytes_written", r.bytes_written);
      appendCount(out, "degraded_placements_end", r.degraded_end);
      appendNum(out, "durability_nines", r.durability_nines);
      out += std::string(", \"no_loss\": ") + (r.no_loss ? "true" : "false");
      appendNum(out, "mttdl_estimate_s", r.mttdl_estimate);
      appendNum(out, "repair_bytes_per_lost_byte",
                r.repair_bytes_per_lost_byte);
      out += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    bench::writeArtifact(*dir, "durability_sweep", out,
                         "bench_durability_sweep");
  }
  return 0;
}
