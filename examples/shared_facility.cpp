// A federated storage facility end to end: metadata service, credential-
// chain access control, admission control, and concurrent RobuSTore
// clients — the "distributed applications and shared storage" picture of
// Figure 3-1 assembled from every subsystem in this repository.
//
//   1. The facility admin delegates read access to a lab PI, who further
//      delegates to a student (Appendix C credential chain); the storage
//      servers validate the chain before serving.
//   2. The student's client opens the dataset through the metadata server
//      (Appendix B open semantics, §4.2 registry).
//   3. Several students read concurrently; per-disk admission control
//      (§5.4) keeps their streams from shredding each other's disk
//      bandwidth.

#include <cstdio>

#include "core/multi_client.hpp"
#include "meta/metadata_server.hpp"
#include "security/credentials.hpp"

int main() {
  using namespace robustore;

  // --- 1. access control ----------------------------------------------------
  security::KeyRegistry pki;
  const auto admin = pki.generate();
  const auto pi = pki.generate();
  const auto student = pki.generate();

  security::Conditions pi_grant;
  pi_grant.handle = 666240;
  pi_grant.rights = security::kRead | security::kWrite;
  security::Conditions student_grant = pi_grant;
  student_grant.rights = security::kRead;       // narrowed
  student_grant.not_after = 3600.0;             // today only

  const std::vector<security::Credential> chain{
      security::makeCredential(pki, admin, pi.public_key, pi_grant),
      security::makeCredential(pki, pi, student.public_key, student_grant)};

  security::AccessRequest request;
  request.handle = 666240;
  request.time = 120.0;
  request.needed_rights = security::kRead;
  const auto verdict = pki.validateChain(chain, admin.public_key,
                                         student.public_key, request);
  std::printf("credential chain (admin -> PI -> student): %s\n",
              security::toString(verdict));
  if (verdict != security::ChainStatus::kOk) return 1;

  // A write attempt with the same read-only chain must fail.
  request.needed_rights = security::kWrite;
  std::printf("student write attempt: %s (expected: insufficient rights)\n",
              security::toString(pki.validateChain(
                  chain, admin.public_key, student.public_key, request)));

  // --- 2. metadata open -------------------------------------------------------
  meta::MetadataServer metadata;
  for (std::uint32_t d = 0; d < 16; ++d) {
    meta::DiskRecord record;
    record.global_disk = d;
    record.site = d / 4;
    metadata.registerDisk(record);
  }
  meta::FileDescriptor wfd;
  if (metadata.open("sky_survey_2006.dat", meta::AccessType::kWrite,
                    meta::QosOptions{}, &wfd) != meta::OpenStatus::kOk) {
    std::printf("metadata create: FAILED\n");
    return 1;
  }
  metadata.registerFile(wfd.handle, 64 * kMiB, kMiB, 64,
                        meta::CodingScheme::kLtCode, coding::LtParams{},
                        {{0, 64}, {1, 64}, {2, 64}, {3, 64}});
  metadata.close(wfd.handle);

  meta::FileDescriptor rfd;
  const auto status = metadata.open("sky_survey_2006.dat",
                                    meta::AccessType::kRead,
                                    meta::QosOptions{}, &rfd);
  std::printf("\nmetadata open: %s; file is %llu MB, LT-coded across %zu "
              "disks\n",
              status == meta::OpenStatus::kOk ? "ok" : "FAILED",
              static_cast<unsigned long long>(rfd.size / kMiB),
              rfd.locations.size());
  metadata.close(rfd.handle);

  // --- 3. concurrent reads under admission control ---------------------------
  core::MultiClientConfig cfg;
  cfg.num_servers = 4;
  cfg.disks_per_server = 4;
  cfg.num_clients = 6;
  cfg.disks_per_access = 8;
  cfg.access.k = 64;
  cfg.access.block_bytes = 256 * kKiB;
  cfg.access.redundancy = 2.0;
  cfg.layout.heterogeneous = false;
  cfg.retry_interval = 25 * kMilliseconds;
  cfg.seed = 12;

  core::MultiClientExperiment free_for_all(cfg);
  const auto chaos = free_for_all.run();
  cfg.admission.enabled = true;
  core::MultiClientExperiment governed(cfg);
  const auto order = governed.run();

  std::printf("\n6 students reading concurrently (16 MB each):\n");
  std::printf("  %-22s system %6.1f MBps, latency stddev %.3f s\n",
              "free-for-all:", chaos.system_throughput_mbps,
              chaos.accesses.latencyStdDev());
  std::printf("  %-22s system %6.1f MBps, latency stddev %.3f s "
              "(%llu polite refusals)\n",
              "admission-controlled:", order.system_throughput_mbps,
              order.accesses.latencyStdDev(),
              static_cast<unsigned long long>(order.admission_refusals));
  return 0;
}
