#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::TrailConfig;
using disk::kSectorSize;

class TrailDriverTest : public TrailFixture {
 protected:
  TrailDriverTest() : TrailFixture(2) {}
};

TEST_F(TrailDriverTest, MountFormatsChecks) {
  start();
  EXPECT_TRUE(driver->mounted());
  EXPECT_EQ(driver->epoch(), 1u);
  // Mount stamps crash_var = 0.
  disk::SectorBuf sector{};
  log_disk->store().read(core::LogDiskLayout(log_disk->geometry()).header_lba(0), 1, sector);
  const auto hdr = core::parse_disk_header(sector);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->epoch, 1u);
  EXPECT_EQ(hdr->crash_var, 0u);
}

TEST_F(TrailDriverTest, UnformattedDiskRejected) {
  disk::DiskDevice raw{sim, disk::small_test_disk()};
  EXPECT_THROW(core::TrailDriver(sim, raw), std::invalid_argument);
}

TEST_F(TrailDriverTest, ShortSpanRejectedAtSubmit) {
  start();
  const std::string before = driver->stats().to_json();
  std::vector<std::byte> one_sector(disk::kSectorSize, std::byte{0x22});
  bool fired = false;
  // A one-sector span submitted as two sectors: the write must not copy
  // past the span's end, and the read must fail here rather than from a
  // later simulator step when the data disk fills the buffer.
  EXPECT_THROW(driver->submit_write({devices[0], 64}, 2, one_sector, [&] { fired = true; }),
               std::invalid_argument);
  EXPECT_THROW(driver->submit_read({devices[0], 64}, 2, one_sector, [&] { fired = true; }),
               std::invalid_argument);
  // A zero-sector read is rejected too, not counted as a buffer hit.
  EXPECT_THROW(driver->submit_read({devices[0], 64}, 0, one_sector, [&] { fired = true; }),
               std::invalid_argument);
  sim.run_until(sim.now() + sim::millis(100));  // long enough for either to complete
  EXPECT_FALSE(fired);
  EXPECT_EQ(driver->stats().to_json(), before);
}

TEST_F(TrailDriverTest, WriteAckThenReadBack) {
  start();
  const auto data = make_pattern(4, 42);
  const io::BlockAddr addr{devices[0], 64};
  const auto latency = write_sync(addr, data);
  EXPECT_GT(latency.ns(), 0);
  const auto got = read_sync(addr, 4);
  EXPECT_EQ(got, data);
}

TEST_F(TrailDriverTest, AckLatencyIsTransferPlusOverhead) {
  start();
  // Prime the pipeline (first write lands mid-track after mount).
  (void)write_sync({devices[0], 0}, make_pattern(1, 1));
  settle();
  const auto& p = log_disk->profile();
  // Several sparse single-sector writes: each should cost about
  // overhead + (header + payload) transfer, never a rotation.
  for (int i = 0; i < 10; ++i) {
    sim.run_until(sim.now() + sim::millis(4));  // wait out the reposition
    const auto lat = write_sync({devices[0], static_cast<disk::Lba>(100 + i)},
                                make_pattern(1, 100 + i));
    EXPECT_LT(lat, p.command_overhead + p.sector_time(0) * 6)
        << "sparse Trail write " << i << " paid rotation: " << sim::to_string(lat);
  }
}

TEST_F(TrailDriverTest, WritebackReachesDataDisk) {
  start();
  const auto data = make_pattern(2, 7);
  write_sync({devices[1], 300}, data);
  settle();
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->stats().writeback_sectors, 2u);
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
}

TEST_F(TrailDriverTest, ReadsHitBufferBeforeWriteback) {
  start();
  const auto data = make_pattern(2, 9);
  write_sync({devices[0], 500}, data);
  // Immediately read (write-back likely still queued): must be served
  // from pinned memory with the new content.
  const auto got = read_sync({devices[0], 500}, 2);
  EXPECT_EQ(got, data);
  EXPECT_GE(driver->stats().read_buffer_hits, 1u);
}

TEST_F(TrailDriverTest, ReadMissGoesToDataDisk) {
  start();
  // Pre-seed the data disk directly.
  const auto data = make_pattern(1, 77);
  data_disks[0]->store().write(123, 1, data);
  const auto got = read_sync({devices[0], 123}, 1);
  EXPECT_EQ(got, data);
  EXPECT_EQ(driver->stats().read_buffer_hits, 0u);
}

TEST_F(TrailDriverTest, OverlappingReadMergesBufferAndDisk) {
  start();
  // Disk has old content for 4 sectors; buffer holds newer content for the
  // middle two.
  const auto old4 = make_pattern(4, 1);
  data_disks[0]->store().write(200, 4, old4);
  const auto new2 = make_pattern(2, 2);
  write_sync({devices[0], 201}, new2);
  const auto got = read_sync({devices[0], 200}, 4);
  EXPECT_EQ(std::memcmp(got.data(), old4.data(), kSectorSize), 0);
  EXPECT_EQ(std::memcmp(got.data() + kSectorSize, new2.data(), 2 * kSectorSize), 0);
  EXPECT_EQ(std::memcmp(got.data() + 3 * kSectorSize, old4.data() + 3 * kSectorSize,
                        kSectorSize), 0);
}

TEST_F(TrailDriverTest, ClusteredWritesBatch) {
  start();
  // Submit 16 writes back-to-back with no waiting: all but the first
  // should coalesce into very few physical log writes.
  int acked = 0;
  for (int i = 0; i < 16; ++i) {
    driver->submit_write({devices[0], static_cast<disk::Lba>(i * 4)}, 1,
                         make_pattern(1, 1000 + i), [&] { ++acked; });
  }
  while (acked < 16) ASSERT_TRUE(sim.step());
  EXPECT_EQ(driver->stats().requests_logged, 16u);
  EXPECT_LE(driver->stats().physical_log_writes, 4u);
  EXPECT_GT(driver->stats().mean_batch_size(), 3.0);
  settle();
  verify_all_acknowledged_durable();
}

TEST_F(TrailDriverTest, BatchingDisabledWritesOnePerRequest) {
  TrailConfig cfg;
  cfg.max_requests_per_physical = 1;
  start(cfg);
  int acked = 0;
  for (int i = 0; i < 8; ++i)
    driver->submit_write({devices[0], static_cast<disk::Lba>(i * 2)}, 1,
                         make_pattern(1, i), [&] { ++acked; });
  while (acked < 8) ASSERT_TRUE(sim.step());
  EXPECT_EQ(driver->stats().physical_log_writes, 8u);
}

TEST_F(TrailDriverTest, SupersededWriteCollapsesWriteback) {
  start();
  const io::BlockAddr addr{devices[0], 700};
  write_sync(addr, make_pattern(2, 1));
  write_sync(addr, make_pattern(2, 2));
  write_sync(addr, make_pattern(2, 3));
  settle();
  verify_expected_on_data_disks();  // latest content wins
  EXPECT_GE(driver->stats().writebacks_skipped, 1u)
      << "at least one queued write-back should have been skipped";
}

TEST_F(TrailDriverTest, LargeWriteSpansTracksAndRoundTrips) {
  start();
  // 50 sectors > small disk track size (16-24): must split across records
  // and physical writes.
  const auto data = make_pattern(50, 5);
  const io::BlockAddr addr{devices[0], 40};
  write_sync(addr, data);
  EXPECT_EQ(read_sync(addr, 50), data);
  settle();
  verify_expected_on_data_disks();
}

TEST_F(TrailDriverTest, UtilizationThresholdTriggersTrackSwitch) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.30;
  start(cfg);
  const auto before = driver->stats().track_switches;
  // Each 8-sector write exceeds 30% of a <=24-sector track.
  for (int i = 0; i < 5; ++i) {
    write_sync({devices[0], static_cast<disk::Lba>(i * 8)}, make_pattern(8, i));
    sim.run_until(sim.now() + sim::millis(10));
  }
  EXPECT_GE(driver->stats().track_switches - before, 4u);
}

TEST_F(TrailDriverTest, ThresholdOneAllowsManyBatchesPerTrack) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 1.0;
  start(cfg);
  const auto before = driver->stats().track_switches;
  for (int i = 0; i < 6; ++i) {
    write_sync({devices[0], static_cast<disk::Lba>(i)}, make_pattern(1, i));
    sim.run_until(sim.now() + sim::millis(5));
  }
  // 6 single-sector writes (2 sectors each w/ header) fit in one-ish track.
  EXPECT_LE(driver->stats().track_switches - before, 2u);
}

TEST_F(TrailDriverTest, IdleRepositionKeepsPredictionFreshUnderDrift) {
  // With spindle drift and a long idle gap, the periodic reposition should
  // keep sparse writes rotation-free.
  log_profile_.rotation_drift_ppm = 300.0;
  log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
  core::format_log_disk(*log_disk);
  TrailConfig cfg;
  cfg.idle_reposition_period = sim::millis(200);
  start(cfg);
  (void)write_sync({devices[0], 0}, make_pattern(1, 1));
  sim.run_until(sim.now() + sim::seconds(5));  // long idle, several repositions
  EXPECT_GE(driver->stats().idle_repositions, 10u);
  const auto lat = write_sync({devices[0], 5}, make_pattern(1, 2));
  const auto& p = log_profile_;
  EXPECT_LT(lat, p.command_overhead + p.sector_time(0) * 6)
      << "prediction went stale despite idle repositioning";
}

TEST_F(TrailDriverTest, NoIdleRepositionGoesStaleUnderDrift) {
  log_profile_.rotation_drift_ppm = 400.0;
  log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
  core::format_log_disk(*log_disk);
  TrailConfig cfg;
  cfg.idle_reposition_period = sim::Duration{0};  // ablation: disabled
  start(cfg);
  (void)write_sync({devices[0], 0}, make_pattern(1, 1));
  sim.run_until(sim.now() + sim::seconds(20));  // drift accumulates
  // A stale prediction costs (most of) a rotation but stays correct.
  const auto data = make_pattern(1, 2);
  const io::BlockAddr addr{devices[0], 5};
  write_sync(addr, data);
  EXPECT_EQ(read_sync(addr, 1), data);
}

TEST_F(TrailDriverTest, LogFullStallsAndResumes) {
  // Tiny ring: reserve most tracks so only 4 usable remain... simpler: use
  // the full small disk but block write-backs by crashing... Instead:
  // throttle by filling the log faster than write-back drains using a slow
  // data disk profile.
  disk::DiskProfile slow = disk::small_test_disk();
  slow.command_overhead = sim::millis_f(30.0);  // very slow data disk
  data_disks.clear();
  data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, slow));
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;   // new track after every write
  cfg.max_requests_per_physical = 1;       // no batching: one track per request
  start(cfg);
  int acked = 0;
  const int n = 120;  // > 77 usable tracks
  for (int i = 0; i < n; ++i)
    driver->submit_write({devices[0], static_cast<disk::Lba>(i * 2)}, 1,
                         make_pattern(1, i), [&] { ++acked; });
  while (acked < n) ASSERT_TRUE(sim.step());
  EXPECT_GE(driver->stats().log_full_stalls, 1u) << "ring should have filled";
  settle();
  verify_all_acknowledged_durable();
}

TEST_F(TrailDriverTest, UnmountStampsCleanAndRemountSkipsRecovery) {
  start();
  write_sync({devices[0], 10}, make_pattern(2, 1));
  driver->unmount();
  EXPECT_FALSE(driver->mounted());
  disk::SectorBuf sector{};
  log_disk->store().read(core::LogDiskLayout(log_disk->geometry()).header_lba(0), 1, sector);
  const auto hdr = core::parse_disk_header(sector);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->crash_var, 1u);

  driver.reset();
  start();
  EXPECT_EQ(driver->epoch(), 2u);
  EXPECT_EQ(driver->last_recovery().records_found, 0u);
  verify_all_acknowledged_durable();
}

TEST_F(TrailDriverTest, DrainCompletesWhenQuiescent) {
  start();
  bool drained = false;
  driver->drain([&] { drained = true; });
  sim.run_until(sim.now() + sim::millis(5));
  EXPECT_TRUE(drained);
}

TEST_F(TrailDriverTest, StatsAreCoherent) {
  start();
  for (int i = 0; i < 10; ++i) {
    write_sync({devices[i % 2], static_cast<disk::Lba>(i * 3)}, make_pattern(2, i));
    sim.run_until(sim.now() + sim::millis(3));
  }
  settle();
  const auto& s = driver->stats();
  EXPECT_EQ(s.requests_logged, 10u);
  EXPECT_EQ(s.sectors_logged, 20u);
  EXPECT_GE(s.physical_log_writes, 1u);
  EXPECT_GE(s.records_written, s.physical_log_writes);
  EXPECT_EQ(s.writeback_sectors + 0u, 20u);
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  EXPECT_EQ(driver->log_queue_depth(), 0u);
}

TEST_F(TrailDriverTest, SerializeArenaStopsGrowingAfterWarmup) {
  // The append serialization path must be allocation-free at steady
  // state: the driver-owned arena grows until it has seen the largest
  // record image, then every further append reuses it. A growth counter
  // that keeps climbing means a per-append allocation crept back in.
  start();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(100 + i * 8)}, make_pattern(4, i));
  settle();
  const std::uint64_t grows_after_warmup = driver->serialize_arena_grows();
  EXPECT_GT(grows_after_warmup, 0u);
  for (int i = 0; i < 40; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(400 + i * 8)}, make_pattern(4, 50 + i));
  settle();
  EXPECT_EQ(driver->serialize_arena_grows(), grows_after_warmup);
  // Larger batches may grow the arena a few more times (track splits
  // make record sizes vary), but growth is monotone and bounded by the
  // largest record image — steady-state large writes must stop growing.
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(800 + i * 20)}, make_pattern(16, 7 + i));
  settle();
  const std::uint64_t grows_after_big = driver->serialize_arena_grows();
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(1000 + i * 20)}, make_pattern(16, 80 + i));
  settle();
  EXPECT_EQ(driver->serialize_arena_grows(), grows_after_big);
}

TEST_F(TrailDriverTest, WriteBeforeMountThrows) {
  driver = std::make_unique<core::TrailDriver>(sim, *log_disk);
  (void)driver->add_data_disk(*data_disks[0]);
  EXPECT_THROW(
      driver->submit_write({io::DeviceId{3, 0}, 0}, 1, make_pattern(1, 0), {}),
      std::logic_error);
  driver->mount();
  EXPECT_THROW((void)driver->add_data_disk(*data_disks[1]), std::logic_error);
  EXPECT_THROW(driver->mount(), std::logic_error);  // double mount
}

TEST_F(TrailDriverTest, DestroyedWithWriteBackOnTheDataDisk) {
  start();
  const auto data = make_pattern(1, 11);
  write_sync({devices[0], 300}, data);
  while (driver->stats().writeback_commands == 0) ASSERT_TRUE(sim.step());
  ASSERT_FALSE(data_disks[0]->store().is_written(300));
  // No crash(): the write-back command is still on the data disk when
  // its queue goes away, and its completion must not reach the queue.
  driver.reset();
  sim.run();
  std::vector<std::byte> got(kSectorSize);
  data_disks[0]->store().read(300, 1, got);
  EXPECT_EQ(got, data);
}

TEST_F(TrailDriverTest, MountWithoutDataDisksThrows) {
  driver = std::make_unique<core::TrailDriver>(sim, *log_disk);
  EXPECT_THROW(driver->mount(), std::logic_error);
}

}  // namespace
}  // namespace trail::testing
