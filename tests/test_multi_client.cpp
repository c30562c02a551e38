#include "core/multi_client.hpp"

#include <gtest/gtest.h>

namespace robustore::core {
namespace {

MultiClientConfig smallConfig() {
  MultiClientConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.num_clients = 4;
  cfg.disks_per_access = 4;
  cfg.access.k = 64;
  cfg.access.block_bytes = 256 * kKiB;  // 16 MB per client
  cfg.access.redundancy = 2.0;
  cfg.layout.heterogeneous = false;  // isolate the sharing effect
  cfg.seed = 11;
  return cfg;
}

TEST(MultiClient, AllClientsCompleteWithoutAdmissionControl) {
  MultiClientExperiment experiment(smallConfig());
  const auto result = experiment.run();
  EXPECT_EQ(result.clients_completed, 4u);
  EXPECT_EQ(result.accesses.trials(), 4u);
  EXPECT_GT(result.system_throughput_mbps, 0.0);
  EXPECT_EQ(result.admission_refusals, 0u);
}

TEST(MultiClient, AllClientsCompleteWithAdmissionControl) {
  auto cfg = smallConfig();
  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  // 4 clients x 4 disks == 16 disks: everyone fits (possibly after
  // retries).
  EXPECT_EQ(result.clients_completed, 4u);
}

TEST(MultiClient, AdmissionControlImprovesSystemThroughput) {
  // The §5.4 rationale: concurrent large accesses sharing a disk destroy
  // its sequential bandwidth; admission control serialises them onto
  // disjoint disks and the whole system moves more bytes per second.
  auto cfg = smallConfig();
  cfg.num_clients = 6;
  cfg.disks_per_access = 8;  // 6 x 8 = 48 wants > 16 disks: heavy sharing
  MultiClientExperiment shared(cfg);
  const auto free_for_all = shared.run();

  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  MultiClientExperiment controlled(cfg);
  const auto with_ac = controlled.run();

  ASSERT_EQ(free_for_all.clients_completed, 6u);
  ASSERT_EQ(with_ac.clients_completed, 6u);
  EXPECT_GT(with_ac.system_throughput_mbps,
            free_for_all.system_throughput_mbps);
  EXPECT_EQ(free_for_all.admission_refusals, 0u);  // control was off
  EXPECT_GT(with_ac.admission_refusals, 0u);       // budgets actually bound
}

TEST(MultiClient, RefusalsAreCountedWhenBudgetsBind) {
  auto cfg = smallConfig();
  cfg.num_clients = 8;
  cfg.disks_per_access = 8;
  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  EXPECT_EQ(result.clients_completed, 8u);
  EXPECT_GT(result.admission_refusals, 0u);
}

TEST(MultiClient, SingleClientMatchesSoloBehaviour) {
  auto cfg = smallConfig();
  cfg.num_clients = 1;
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  EXPECT_EQ(result.clients_completed, 1u);
  EXPECT_GT(result.accesses.meanBandwidthMBps(), 0.0);
}

TEST(MultiClient, CampaignRunsEveryAccessPerClient) {
  auto cfg = smallConfig();
  cfg.accesses_per_client = 3;
  cfg.think_time = 10 * kMilliseconds;
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  EXPECT_EQ(result.clients_completed, 4u);
  EXPECT_EQ(result.accesses_completed, 12u);
  EXPECT_EQ(result.accesses.trials(), 12u);
  EXPECT_GT(result.system_throughput_mbps, 0.0);
  EXPECT_GT(result.events_fired, 0u);
  EXPECT_GT(result.peak_live_events, 0u);
  EXPECT_GE(result.events_scheduled, result.events_fired);
}

TEST(MultiClient, CampaignDeadlineBoundsTheRun) {
  auto cfg = smallConfig();
  cfg.accesses_per_client = 100;  // far more than the deadline allows
  cfg.run_deadline = 2.0;         // seconds of simulated time
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  // Nobody finishes 100 accesses in 2 simulated seconds. Every completed
  // access was collected, plus at most one pending access per client the
  // deadline caught mid-flight — those are aborted at the deadline and
  // collected as failed during the final pass.
  EXPECT_EQ(result.clients_completed, 0u);
  EXPECT_GT(result.accesses_completed, 0u);
  EXPECT_LT(result.accesses_completed, 400u);
  EXPECT_GE(result.accesses.trials(), result.accesses_completed);
  EXPECT_LE(result.accesses.trials(), result.accesses_completed + 4);
}

TEST(MultiClient, CampaignCountsNoAccessThatNeverStarted) {
  // At the deadline every client is thinking after its first access, and
  // its second never begins: no incomplete entry stands for it.
  auto cfg = smallConfig();
  cfg.accesses_per_client = 3;
  cfg.think_time = 1000.0;
  cfg.run_deadline = 50.0;
  MultiClientExperiment thinking(cfg);
  const auto after_think = thinking.run();
  EXPECT_EQ(after_think.accesses_completed, 4u);
  EXPECT_EQ(after_think.accesses.trials(), 4u);
  EXPECT_EQ(after_think.accesses.incompleteCount(), 0u);

  // Eight clients want 8 of 16 disks at one stream per disk, and a grant
  // of 4 is kept, so at most four run at once: the deadline catches at
  // most four in flight. The refused ones never began and add nothing.
  cfg = smallConfig();
  cfg.num_clients = 8;
  cfg.disks_per_access = 8;
  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  cfg.accesses_per_client = 2;
  cfg.run_deadline = 0.2;
  MultiClientExperiment refusing(cfg);
  const auto refused = refusing.run();
  EXPECT_GT(refused.admission_refusals, 0u);
  EXPECT_LE(refused.accesses.incompleteCount(), 4u);
}

TEST(MultiClient, DeadlineTruncationQuiescesReissueChains) {
  // A campaign cut off with watchdog reissues in flight must settle at
  // the deadline: before sessions were aborted there, the post-deadline
  // drain replayed every pending watchdog/retry chain to its natural end
  // — with a long request timeout that meant hundreds of simulated
  // seconds past a 2-second deadline.
  auto cfg = smallConfig();
  cfg.accesses_per_client = 100;
  cfg.run_deadline = 2.0;
  cfg.access.request_timeout = 500.0;  // watchdogs parked far in the future
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  EXPECT_EQ(result.clients_completed, 0u);
  EXPECT_GT(result.accesses_completed, 0u);
  // The drain ends within in-service disk time of the deadline, not at
  // the watchdog horizon.
  EXPECT_GE(result.drained_at, 2.0);
  EXPECT_LT(result.drained_at, 10.0);
}

TEST(MultiClient, FastSelectionMatchesCampaignShape) {
  auto cfg = smallConfig();
  cfg.accesses_per_client = 2;
  cfg.fast_selection = true;
  cfg.admission.enabled = true;
  cfg.admission.max_streams_per_disk = 1;
  MultiClientExperiment experiment(cfg);
  const auto result = experiment.run();
  // Different RNG stream than the legacy permutation walk, but the same
  // admission-respecting campaign semantics.
  EXPECT_EQ(result.clients_completed, 4u);
  EXPECT_EQ(result.accesses_completed, 8u);
  EXPECT_EQ(result.accesses.trials(), 8u);
}

TEST(MultiClient, CampaignIsDeterministicForSameSeed) {
  auto cfg = smallConfig();
  cfg.accesses_per_client = 2;
  MultiClientExperiment a(cfg);
  MultiClientExperiment b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.system_throughput_mbps, rb.system_throughput_mbps);
  EXPECT_EQ(ra.events_fired, rb.events_fired);
  EXPECT_EQ(ra.peak_live_events, rb.peak_live_events);
}

TEST(MultiClient, DeterministicForSameSeed) {
  MultiClientExperiment a(smallConfig());
  MultiClientExperiment b(smallConfig());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.system_throughput_mbps, rb.system_throughput_mbps);
  EXPECT_DOUBLE_EQ(ra.accesses.meanLatency(), rb.accesses.meanLatency());
}

}  // namespace
}  // namespace robustore::core
