#include "meta/metadata_server.hpp"

#include <gtest/gtest.h>

#include <set>

namespace robustore::meta {
namespace {

DiskRecord makeDisk(std::uint32_t id, std::uint32_t site,
                    double load = 0.0, double availability = 0.99) {
  DiskRecord d;
  d.global_disk = id;
  d.site = site;
  d.recent_load = load;
  d.availability = availability;
  return d;
}

class MetadataFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four sites x four disks.
    for (std::uint32_t d = 0; d < 16; ++d) {
      server.registerDisk(makeDisk(d, d / 4));
    }
  }
  MetadataServer server;
  Rng rng{1};
};

TEST_F(MetadataFixture, RegistryBasics) {
  EXPECT_EQ(server.numDisks(), 16u);
  ASSERT_NE(server.disk(3), nullptr);
  EXPECT_EQ(server.disk(3)->site, 0u);
  EXPECT_EQ(server.disk(99), nullptr);
}

TEST_F(MetadataFixture, LoadReportsFoldIntoEwma) {
  server.reportLoad(0, 1.0, 1.0);
  const double after_one = server.disk(0)->recent_load;
  EXPECT_GT(after_one, 0.0);
  EXPECT_LT(after_one, 1.0);
  for (int i = 0; i < 20; ++i) server.reportLoad(0, 1.0, 2.0 + i);
  EXPECT_GT(server.disk(0)->recent_load, 0.95);
}

TEST_F(MetadataFixture, SelectionPrefersLightlyLoadedDisks) {
  // Load up disks 0..7 heavily.
  for (std::uint32_t d = 0; d < 8; ++d) {
    for (int i = 0; i < 20; ++i) server.reportLoad(d, 1.0, i);
  }
  const auto picked = server.selectDisks(6, QosOptions{}, rng);
  std::size_t heavy = 0;
  for (const auto d : picked) heavy += (d < 8);
  EXPECT_LE(heavy, 1u);
}

TEST_F(MetadataFixture, SelectionSpreadsAcrossSites) {
  const auto picked = server.selectDisks(8, QosOptions{}, rng);
  std::set<std::uint32_t> sites;
  for (const auto d : picked) sites.insert(*&server.disk(d)->site);
  EXPECT_GE(sites.size(), 3u);
}

TEST_F(MetadataFixture, SelectionMixesAvailability) {
  MetadataServer mixed;
  for (std::uint32_t d = 0; d < 8; ++d) {
    mixed.registerDisk(makeDisk(d, d % 4, 0.0, 0.999));  // high avail
  }
  for (std::uint32_t d = 8; d < 16; ++d) {
    mixed.registerDisk(makeDisk(d, d % 4, 0.0, 0.90));  // low avail
  }
  const auto picked = mixed.selectDisks(9, QosOptions{}, rng);
  std::size_t low = 0;
  for (const auto d : picked) low += (d >= 8);
  EXPECT_GE(low, 2u);  // not exclusively the high-availability pool
}

TEST_F(MetadataFixture, SelectionHonorsCapacityReservation) {
  // Fill disks 0..11 nearly to capacity.
  for (std::uint32_t d = 0; d < 12; ++d) {
    server.addUsage(d, 400 * kGiB - kMiB);
  }
  QosOptions qos;
  qos.reserve_bytes = 4 * kGiB;
  const auto picked = server.selectDisks(4, qos, rng);
  for (const auto d : picked) EXPECT_GE(d, 12u);
}

TEST_F(MetadataFixture, OpenReadOfMissingFileFails) {
  FileDescriptor fd;
  EXPECT_EQ(server.open("nope", AccessType::kRead, QosOptions{}, &fd),
            OpenStatus::kNotFound);
}

TEST_F(MetadataFixture, WriteCreateRegisterReadRoundTrip) {
  FileDescriptor wfd;
  ASSERT_EQ(server.open("f1", AccessType::kWrite, QosOptions{}, &wfd),
            OpenStatus::kOk);
  server.registerFile(wfd.handle, 64 * kMiB, kMiB, 64,
                      CodingScheme::kLtCode, coding::LtParams{},
                      {{0, 128}, {1, 128}});
  server.close(wfd.handle);

  FileDescriptor rfd;
  ASSERT_EQ(server.open("f1", AccessType::kRead, QosOptions{}, &rfd),
            OpenStatus::kOk);
  EXPECT_EQ(rfd.k, 64u);
  EXPECT_EQ(rfd.coding, CodingScheme::kLtCode);
  ASSERT_EQ(rfd.locations.size(), 2u);
  EXPECT_EQ(rfd.locations[0].second, 128u);
  server.close(rfd.handle);
  // Registered usage consumed capacity on the named disks.
  EXPECT_EQ(server.disk(0)->used, 128 * kMiB);
}

TEST_F(MetadataFixture, WriterExcludesEveryoneElse) {
  FileDescriptor wfd;
  ASSERT_EQ(server.open("f2", AccessType::kWrite, QosOptions{}, &wfd),
            OpenStatus::kOk);
  FileDescriptor other;
  EXPECT_EQ(server.open("f2", AccessType::kRead, QosOptions{}, &other),
            OpenStatus::kLockConflict);
  EXPECT_EQ(server.open("f2", AccessType::kWrite, QosOptions{}, &other),
            OpenStatus::kLockConflict);
  server.close(wfd.handle);
  EXPECT_EQ(server.open("f2", AccessType::kRead, QosOptions{}, &other),
            OpenStatus::kOk);
}

TEST_F(MetadataFixture, ReadersShareButBlockWriters) {
  FileDescriptor wfd;
  ASSERT_EQ(server.open("f3", AccessType::kWrite, QosOptions{}, &wfd),
            OpenStatus::kOk);
  server.registerFile(wfd.handle, kMiB, kMiB, 1, CodingScheme::kNone,
                      coding::LtParams{}, {});
  server.close(wfd.handle);

  FileDescriptor r1;
  FileDescriptor r2;
  ASSERT_EQ(server.open("f3", AccessType::kRead, QosOptions{}, &r1),
            OpenStatus::kOk);
  ASSERT_EQ(server.open("f3", AccessType::kRead, QosOptions{}, &r2),
            OpenStatus::kOk);
  FileDescriptor w2;
  EXPECT_EQ(server.open("f3", AccessType::kWrite, QosOptions{}, &w2),
            OpenStatus::kLockConflict);
  server.close(r1.handle);
  EXPECT_EQ(server.open("f3", AccessType::kWrite, QosOptions{}, &w2),
            OpenStatus::kLockConflict);  // r2 still reading
  server.close(r2.handle);
  EXPECT_EQ(server.open("f3", AccessType::kWrite, QosOptions{}, &w2),
            OpenStatus::kOk);
}

TEST_F(MetadataFixture, CreateWithExcessiveReservationFails) {
  QosOptions qos;
  qos.reserve_bytes = 16ull * 400 * kGiB + 1;
  FileDescriptor fd;
  EXPECT_EQ(server.open("big", AccessType::kWrite, qos, &fd),
            OpenStatus::kNoCapacity);
}

TEST_F(MetadataFixture, CloseUnknownHandleIsIgnored) {
  EXPECT_NO_FATAL_FAILURE(server.close(12345));
}

}  // namespace
}  // namespace robustore::meta
