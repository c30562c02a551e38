// Chaos campaign sweep: runs the seeded randomized fault-campaign
// harness over a seed range and reports, per scheme, how the campaigns
// exercised the system — accesses completed vs. exempt, faults injected
// by kind, repair work performed — plus the invariant verdicts. A clean
// sweep (zero violations) is the headline robustness number; any failing
// seed prints its violations and can be reproduced and minimized with
// `robustore_cli chaos --seeds N..N --shrink`.
//
//   bench_chaos_sweep [--tier smoke|mid|full] [--seed N] [--help]
//
// Every field in BENCH_chaos_sweep.json is simulation-deterministic
// (campaigns are pure functions of their seed; the sweep digest folds
// the per-campaign replay digests in seed order), so the CI determinism
// guard diffs the file across thread counts directly.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/campaign.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "client/scheme.hpp"
#include "core/run_env.hpp"
#include "core/trial_pool.hpp"

namespace {

using namespace robustore;
using bench::appendCount;

struct SchemeRow {
  client::SchemeKind scheme = client::SchemeKind::kRaid0;
  std::uint64_t campaigns = 0;
  std::uint64_t destructive_campaigns = 0;
  std::uint64_t accesses = 0;
  std::uint64_t accesses_complete = 0;
  std::uint64_t accesses_exempt = 0;
  std::uint64_t events = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t corrupt_rejected = 0;
  std::uint64_t reissues = 0;
  std::uint64_t repairs_completed = 0;
  Bytes repair_bytes_read = 0;
  Bytes repair_bytes_written = 0;
  std::uint64_t loss_events = 0;
  std::uint64_t violations = 0;
};

int usage(std::FILE* to, int code) {
  std::fprintf(to,
               "usage: bench_chaos_sweep [--tier smoke|mid|full] [--seed N]\n"
               "  --tier   seed-range size: smoke = 16 campaigns (CI), mid ="
               " 64, full = 200\n"
               "           (default: mid)\n"
               "  --seed N base of the seed range (overrides ROBUSTORE_SEED;"
               " default 0)\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tier = "mid";
  std::uint64_t base_seed = core::RunEnv::seed(0);
  if (const auto code = bench::parseTierArgs(argc, argv, "bench_chaos_sweep",
                                             usage, tier, base_seed)) {
    return *code;
  }
  const std::uint32_t campaigns =
      tier == "smoke" ? 16 : (tier == "mid" ? 64 : 200);

  std::printf("Chaos campaign sweep (%s tier): seeds %" PRIu64 "..%" PRIu64
              ", all schemes, repair + data plane active\n"
              "invariants: completion, acked-read, conservation, quiesce,"
              " clock-monotone,\n            ledger, repair-convergence,"
              " metadata-liveness\n\n",
              tier.c_str(), base_seed, base_seed + campaigns - 1);

  std::vector<chaos::CampaignResult> results(campaigns);
  {
    core::TrialPool pool;
    pool.forEachIndex(campaigns, [&](std::uint32_t i) {
      results[i] = chaos::runCampaign(chaos::planFromSeed(base_seed + i));
    });
  }

  // Reduce per scheme in seed order; fold the replay digests into one
  // sweep digest so the determinism guard has a single value to compare.
  std::vector<SchemeRow> rows(4);
  for (std::size_t s = 0; s < 4; ++s) rows[s].scheme = client::kAllSchemes[s];
  std::uint64_t sweep_digest = 1469598103934665603ULL;
  std::uint64_t failing_campaigns = 0;
  for (std::uint32_t i = 0; i < campaigns; ++i) {
    const std::uint64_t seed = base_seed + i;
    const chaos::CampaignPlan plan = chaos::planFromSeed(seed);
    const chaos::CampaignResult& r = results[i];
    sweep_digest = (sweep_digest ^ r.digest) * 1099511628211ULL;
    SchemeRow* row = nullptr;
    for (SchemeRow& candidate : rows) {
      if (candidate.scheme == plan.scheme) row = &candidate;
    }
    ++row->campaigns;
    if (plan.destructive()) ++row->destructive_campaigns;
    row->events += plan.events.size();
    const chaos::Observations& obs = r.observations;
    row->faults_injected += obs.injected_fail_stop +
                            obs.injected_crash_recover + obs.injected_stall +
                            obs.injected_slow_disk + obs.churn_failures +
                            obs.churn_replacements;
    row->corruptions += obs.corruptions_injected;
    for (const chaos::AccessOutcome& a : obs.accesses) {
      ++row->accesses;
      if (a.complete) ++row->accesses_complete;
      if (a.failure_exempt) ++row->accesses_exempt;
      row->corrupt_rejected += a.corrupt_rejected;
      row->reissues += a.metrics.reissued_requests;
    }
    row->repairs_completed += obs.repair.repairs_completed;
    row->repair_bytes_read += obs.repair.bytes_read;
    row->repair_bytes_written += obs.repair.bytes_written;
    row->loss_events += obs.repair.loss_events;
    row->violations += r.violations.size();
    if (!r.passed()) {
      ++failing_campaigns;
      for (const chaos::Violation& v : r.violations) {
        std::printf("FAIL seed %" PRIu64 " [%s]: %s\n", seed,
                    v.invariant.c_str(), v.detail.c_str());
      }
    }
  }

  std::printf("%-10s %5s %5s %5s %6s %6s %7s %7s %8s %7s %6s %5s\n", "scheme",
              "camps", "destr", "accs", "compl", "exempt", "faults", "corr",
              "reissue", "repairs", "losses", "viol");
  for (const SchemeRow& row : rows) {
    std::printf("%-10s %5llu %5llu %5llu %6llu %6llu %7llu %7llu %8llu %7llu"
                " %6llu %5llu\n",
                client::schemeName(row.scheme),
                static_cast<unsigned long long>(row.campaigns),
                static_cast<unsigned long long>(row.destructive_campaigns),
                static_cast<unsigned long long>(row.accesses),
                static_cast<unsigned long long>(row.accesses_complete),
                static_cast<unsigned long long>(row.accesses_exempt),
                static_cast<unsigned long long>(row.faults_injected),
                static_cast<unsigned long long>(row.corruptions),
                static_cast<unsigned long long>(row.reissues),
                static_cast<unsigned long long>(row.repairs_completed),
                static_cast<unsigned long long>(row.loss_events),
                static_cast<unsigned long long>(row.violations));
  }
  std::printf("\n%u campaigns, %" PRIu64 " failing; sweep digest"
              " %016" PRIx64 "\n",
              campaigns, failing_campaigns, sweep_digest);

  if (const auto dir = core::RunEnv::jsonDir()) {
    std::string out = "{\n  \"id\": \"chaos_sweep\",\n  \"tier\": \"" + tier +
                      "\",\n  \"campaigns\": " + std::to_string(campaigns) +
                      ",\n  \"base_seed\": " + std::to_string(base_seed) +
                      ",\n  \"failing_campaigns\": " +
                      std::to_string(failing_campaigns);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\n  \"sweep_digest\": \"%016" PRIx64
                  "\",\n  \"rows\": [\n", sweep_digest);
    out += buf;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SchemeRow& r = rows[i];
      out += "    {\"scheme\": \"" +
             std::string(client::schemeName(r.scheme)) + "\"";
      appendCount(out, "campaigns", r.campaigns);
      appendCount(out, "destructive_campaigns", r.destructive_campaigns);
      appendCount(out, "events", r.events);
      appendCount(out, "accesses", r.accesses);
      appendCount(out, "accesses_complete", r.accesses_complete);
      appendCount(out, "accesses_exempt", r.accesses_exempt);
      appendCount(out, "faults_injected", r.faults_injected);
      appendCount(out, "corruptions_injected", r.corruptions);
      appendCount(out, "corrupt_rejected", r.corrupt_rejected);
      appendCount(out, "reissues", r.reissues);
      appendCount(out, "repairs_completed", r.repairs_completed);
      appendCount(out, "repair_bytes_read", r.repair_bytes_read);
      appendCount(out, "repair_bytes_written", r.repair_bytes_written);
      appendCount(out, "loss_events", r.loss_events);
      appendCount(out, "violations", r.violations);
      out += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    bench::writeArtifact(*dir, "chaos_sweep", out, "bench_chaos_sweep");
  }
  return failing_campaigns == 0 ? 0 : 1;
}
