// Failure sweep: the four schemes reading 128 MB from 16 disks while the
// fault injector applies one scenario per sweep point — fail-stops,
// crash-and-recover outages, transient stalls, and stragglers. This is
// the dynamic counterpart of bench_failure_tolerance (which fails disks
// before the access starts): here faults land mid-access and the schemes
// must notice, re-issue, and route around them. Expected shape: RAID-0
// collapses at the first fail-stop (incomplete trials), replication
// survives small counts, RobuSTore degrades only in bandwidth, and the
// degraded-mode tables quantify the re-issue work each scheme paid.

#include "bench_common.hpp"

int main() {
  using namespace robustore;
  bench::banner("failure_sweep",
                "mid-access faults: 128 MB read, 16 disks, 3x redundancy");
  bench::runSchemeSweep("failure_sweep", "scenario",
                        bench::failureScenarios(bench::failureSweepConfig()));
  return 0;
}
