#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"

namespace trail::disk {
namespace {

std::vector<std::byte> pattern(std::uint32_t sectors, std::uint8_t seed) {
  std::vector<std::byte> v(static_cast<std::size_t>(sectors) * kSectorSize);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::byte(static_cast<std::uint8_t>(seed + i * 31));
  return v;
}

class DiskDeviceTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  DiskDevice dev{sim, small_test_disk()};

  sim::Duration timed_write(Lba lba, std::uint32_t count, std::span<const std::byte> data) {
    const sim::TimePoint t0 = sim.now();
    sim::TimePoint done = t0;
    bool fired = false;
    dev.write(lba, count, data, [&] {
      done = sim.now();
      fired = true;
    });
    sim.run();
    EXPECT_TRUE(fired);
    return done - t0;
  }

  sim::Duration timed_read(Lba lba, std::uint32_t count, std::span<std::byte> out) {
    const sim::TimePoint t0 = sim.now();
    sim::TimePoint done = t0;
    bool fired = false;
    dev.read(lba, count, out, [&] {
      done = sim.now();
      fired = true;
    });
    sim.run();
    EXPECT_TRUE(fired);
    return done - t0;
  }
};

TEST_F(DiskDeviceTest, WriteThenReadRoundTrips) {
  const auto data = pattern(4, 11);
  timed_write(100, 4, data);
  std::vector<std::byte> out(data.size());
  timed_read(100, 4, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
}

TEST_F(DiskDeviceTest, UnwrittenSectorsReadZero) {
  std::vector<std::byte> out(kSectorSize, std::byte{0xAB});
  timed_read(500, 1, out);
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST_F(DiskDeviceTest, LatencyIncludesAtLeastOverheadAndTransfer) {
  const auto data = pattern(1, 3);
  const auto lat = timed_write(0, 1, data);
  const auto& p = dev.profile();
  EXPECT_GE(lat, p.command_overhead + p.sector_time(0));
  // ... and at most overhead + full seek + rotation + transfer.
  EXPECT_LE(lat, p.command_overhead + p.seek.full_stroke + p.rotation_time() +
                     p.rotation_time());
}

TEST_F(DiskDeviceTest, RotationalWaitBoundedByOneRevolution) {
  // Write the same sector twice: second write must wait ~a full rotation
  // (minus overhead already elapsed) since the head just passed it.
  const auto data = pattern(1, 5);
  timed_write(10, 1, data);
  const auto lat = timed_write(10, 1, data);
  const auto& p = dev.profile();
  EXPECT_LE(lat, p.command_overhead + p.rotation_time() + p.sector_time(0));
  EXPECT_GE(lat, p.command_overhead + p.rotation_time() / 2);
}

TEST_F(DiskDeviceTest, SequentialNextSectorWriteAvoidsRotation) {
  // Immediately writing the sector that trails the head by the command
  // overhead should incur (close to) zero rotational wait. Compute the
  // landing sector the same way the Trail predictor would.
  const auto& p = dev.profile();
  const Geometry& g = p.geometry;
  const auto one = pattern(1, 9);
  timed_write(0, 1, one);  // head now just past sector 0 of track 0

  const double advance = static_cast<double>(p.command_overhead.ns()) /
                         static_cast<double>(p.rotation_time().ns());
  const double angle = dev.angle_at(sim.now()) + advance;
  const std::uint32_t target = (g.sector_at_angle(0, angle - std::floor(angle)) + 1) %
                               g.spt_of_track(0);
  const auto lat = timed_write(target, 1, one);
  EXPECT_LE(lat, p.command_overhead + p.sector_time(0) * 3)
      << "write at predicted head position should not pay rotation";
}

TEST_F(DiskDeviceTest, MultiSectorTransferScalesWithCount) {
  const auto d1 = pattern(1, 1);
  const auto d8 = pattern(8, 1);
  // Use distant targets to randomize rotation; compare transfer-dominated
  // difference over several trials.
  const auto lat1 = timed_write(40, 1, d1);
  const auto lat8 = timed_write(40, 8, d8);
  EXPECT_GT(lat8 + dev.profile().rotation_time(), lat1 + dev.profile().sector_time(0) * 7);
}

TEST_F(DiskDeviceTest, CrossTrackRequestTouchesBothTracks) {
  const Geometry& g = dev.geometry();
  const std::uint32_t spt = g.spt_of_track(0);
  const auto data = pattern(4, 77);
  timed_write(spt - 2, 4, data);  // spans track 0 -> track 1
  std::vector<std::byte> out(data.size());
  timed_read(spt - 2, 4, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
  EXPECT_EQ(dev.current_track(), 1u);
}

TEST_F(DiskDeviceTest, CommandsQueueFifo) {
  std::vector<int> order;
  const auto data = pattern(1, 2);
  dev.write(0, 1, data, [&] { order.push_back(0); });
  dev.write(100, 1, data, [&] { order.push_back(1); });
  dev.write(50, 1, data, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(DiskDeviceTest, StatsAccumulate) {
  const auto data = pattern(2, 1);
  timed_write(0, 2, data);
  std::vector<std::byte> out(kSectorSize);
  timed_read(0, 1, out);
  const DiskStats& s = dev.stats();
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.sectors_written, 2u);
  EXPECT_EQ(s.sectors_read, 1u);
  EXPECT_GT(s.busy.ns(), 0);
  EXPECT_EQ(s.busy.ns(),
            (s.overhead + s.seek + s.rotation + s.transfer).ns());
}

TEST_F(DiskDeviceTest, OutOfRangeCommandThrows) {
  const auto data = pattern(1, 1);
  EXPECT_THROW(timed_write(dev.geometry().total_sectors(), 1, data), std::out_of_range);
  EXPECT_THROW(dev.write(0, 0, data, {}), std::invalid_argument);
}

TEST_F(DiskDeviceTest, CrashDropsQueuedCommands) {
  const auto data = pattern(1, 1);
  bool first_done = false, second_done = false;
  dev.write(0, 1, data, [&] { first_done = true; });
  dev.write(10, 1, data, [&] { second_done = true; });
  dev.crash_halt();
  sim.run();
  EXPECT_FALSE(first_done);
  EXPECT_FALSE(second_done);
  EXPECT_TRUE(dev.halted());
}

TEST_F(DiskDeviceTest, CrashMidTransferCommitsPrefixOnly) {
  // Issue an 8-sector write, crash after ~3 sectors of transfer.
  const auto data = pattern(8, 42);
  const auto& p = dev.profile();
  dev.write(0, 8, data, [] { FAIL() << "write must not complete"; });

  // Determine the transfer start analytically: overhead + rotational wait
  // from angle at (0 + overhead) to sector 0 of track 0.
  const sim::TimePoint t_over{p.command_overhead.ns()};
  double wait = dev.geometry().angle_of(0, 0) - dev.angle_at(t_over);
  if (wait < 0) wait += 1.0;
  const sim::TimePoint start =
      t_over + sim::Duration{static_cast<std::int64_t>(
                   wait * static_cast<double>(p.actual_rotation_time().ns()))};
  const sim::TimePoint crash_at = start + p.actual_sector_time(0) * 3 + sim::micros(5);
  sim.run_until(crash_at);
  dev.crash_halt();
  sim.run();

  EXPECT_TRUE(dev.store().is_written(0));
  EXPECT_TRUE(dev.store().is_written(2));
  // Sector 3 was under the head at the cut: SHORN — written, but with
  // garbage rather than the payload.
  EXPECT_TRUE(dev.store().is_written(3));
  std::vector<std::byte> shorn(kSectorSize);
  dev.store().read(3, 1, shorn);
  EXPECT_NE(std::memcmp(shorn.data(), data.data() + 3 * kSectorSize, kSectorSize), 0)
      << "the in-flight sector must not hold the intended payload";
  EXPECT_FALSE(dev.store().is_written(4));
  EXPECT_FALSE(dev.store().is_written(7));
}

TEST_F(DiskDeviceTest, SubmitAfterCrashIsIgnored) {
  dev.crash_halt();
  const auto data = pattern(1, 1);
  bool fired = false;
  dev.write(0, 1, data, [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired);
  dev.restart();
  timed_write(0, 1, data);
  EXPECT_TRUE(dev.store().is_written(0));
}

TEST(DiskDeviceSeek, LongerSeeksCostMore) {
  sim::Simulator sim;
  DiskDevice dev{sim, st41601n()};
  SeekModel model(dev.profile().seek);
  EXPECT_EQ(model.seek_time(0).ns(), 0);
  sim::Duration prev = model.seek_time(1);
  EXPECT_EQ(prev, dev.profile().seek.track_to_track);
  for (std::uint32_t d : {2u, 10u, 100u, 700u, 1500u, 2100u}) {
    const sim::Duration t = model.seek_time(d);
    EXPECT_GE(t, prev) << "seek time must be nondecreasing at distance " << d;
    prev = t;
  }
  EXPECT_NEAR(model.seek_time(dev.geometry().cylinders() / 3).ms(), 12.0, 0.01);
  EXPECT_NEAR(model.seek_time(dev.geometry().cylinders() - 1).ms(), 22.0, 0.01);
}

TEST(DiskDeviceSeek, InvalidParamsThrow) {
  SeekModel::Params p;
  p.track_to_track = sim::millis(2);
  p.average = sim::millis(1);  // avg < t2t
  p.full_stroke = sim::millis(3);
  p.head_switch = sim::micros(100);
  p.cylinders = 100;
  EXPECT_THROW(SeekModel{p}, std::invalid_argument);
}

TEST(SectorStore, BasicReadWriteAndWipe) {
  SectorStore store(100);
  std::vector<std::byte> data(kSectorSize * 2, std::byte{0x5A});
  store.write(10, 2, data);
  EXPECT_TRUE(store.is_written(10));
  EXPECT_TRUE(store.is_written(11));
  EXPECT_EQ(store.written_sector_count(), 2u);
  std::vector<std::byte> out(kSectorSize * 2);
  store.read(10, 2, out);
  EXPECT_EQ(out, data);
  store.wipe();
  EXPECT_FALSE(store.is_written(10));
  store.read(10, 2, out);
  EXPECT_EQ(out[0], std::byte{0});
}

TEST(SectorStore, RangeChecks) {
  SectorStore store(10);
  std::vector<std::byte> buf(kSectorSize);
  EXPECT_THROW(store.read(10, 1, buf), std::out_of_range);
  EXPECT_THROW(store.write(9, 2, std::vector<std::byte>(2 * kSectorSize)), std::out_of_range);
  EXPECT_THROW(store.read(0, 2, buf), std::invalid_argument);  // buffer too small
}

TEST(SectorStore, WritesStraddlingChunkBoundaries) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  SectorStore store(kChunk * 4);
  // A run crossing two chunk boundaries: last 3 sectors of chunk 0 through
  // the first 5 of chunk 2.
  const Lba start = kChunk - 3;
  const std::uint32_t count = 3 + kChunk + 5;
  std::vector<std::byte> data(static_cast<std::size_t>(count) * kSectorSize);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::byte(static_cast<std::uint8_t>(i * 131 + i / kSectorSize));
  store.write(start, count, data);
  EXPECT_EQ(store.written_sector_count(), count);

  std::vector<std::byte> out(data.size());
  store.read(start, count, out);
  EXPECT_EQ(out, data);

  // Reads straddling the same boundaries at different alignments.
  std::vector<std::byte> two(2 * kSectorSize);
  store.read(kChunk - 1, 2, two);
  EXPECT_TRUE(std::equal(two.begin(), two.end(),
                         data.begin() + static_cast<std::ptrdiff_t>(2) * kSectorSize));

  EXPECT_TRUE(store.is_written(start));
  EXPECT_TRUE(store.is_written(kChunk));              // chunk 1 start
  EXPECT_TRUE(store.is_written(2 * kChunk + 4));      // last written sector
  EXPECT_FALSE(store.is_written(start - 1));
  EXPECT_FALSE(store.is_written(2 * kChunk + 5));
}

TEST(SectorStore, UnwrittenSectorsInsideWrittenChunkReadZero) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  SectorStore store(kChunk * 2);
  std::vector<std::byte> data(kSectorSize, std::byte{0xEE});
  store.write(7, 1, data);  // allocates chunk 0
  EXPECT_TRUE(store.is_written(7));
  EXPECT_FALSE(store.is_written(6));
  EXPECT_FALSE(store.is_written(8));
  EXPECT_EQ(store.written_sector_count(), 1u);
  // Neighbours inside the same (now allocated) chunk must read as zeroes.
  std::vector<std::byte> out(3 * kSectorSize, std::byte{0x55});
  store.read(6, 3, out);
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(out[kSectorSize - 1], std::byte{0});
  EXPECT_EQ(out[kSectorSize], std::byte{0xEE});
  EXPECT_EQ(out[2 * kSectorSize], std::byte{0});
  // A read spanning written sectors and the unwritten run between them
  // (same chunk): the unwritten part reads as zeroes.
  constexpr std::uint32_t kPage = 8;
  store.write(2 * kPage + 1, 1, data);
  std::vector<std::byte> across(3 * kPage * kSectorSize, std::byte{0x55});
  store.read(0, 3 * kPage, across);
  for (std::uint32_t s = 0; s < 3 * kPage; ++s) {
    const std::byte want = s == 7 || s == 2 * kPage + 1 ? std::byte{0xEE} : std::byte{0};
    EXPECT_EQ(across[static_cast<std::size_t>(s) * kSectorSize], want) << "sector " << s;
    EXPECT_EQ(across[(s + 1) * kSectorSize - 1], want) << "sector " << s;
  }
}

TEST(SectorStore, SparseWritesAllocateTouchedPagesOnly) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  constexpr std::uint32_t kExtents = 16;
  SectorStore store(kChunk * kExtents);
  std::vector<std::byte> data(kSectorSize, std::byte{0x42});
  for (Lba lba = 3; lba < kChunk * kExtents; lba += kChunk) store.write(lba, 1, data);
  // One 512-byte slot per written sector, nothing for its neighbours.
  EXPECT_EQ(store.allocated_bytes(), kExtents * kSectorSize);
  // A 2-sector write straddling two chunks costs exactly its two sectors.
  store.write(2 * kChunk - 1, 2, std::vector<std::byte>(2 * kSectorSize, std::byte{0x43}));
  EXPECT_EQ(store.allocated_bytes(), (kExtents + 2) * kSectorSize);
}

TEST(SectorStore, RewrittenSectorHoldsOneSlot) {
  SectorStore store(SectorStore::kChunkSectors * 4);
  std::vector<std::byte> data(2 * kSectorSize);
  for (int round = 0; round < 1000; ++round) {
    std::fill(data.begin(), data.end(), std::byte(static_cast<std::uint8_t>(round)));
    store.write(100, 2, data);
  }
  EXPECT_EQ(store.written_sector_count(), 2u);
  EXPECT_EQ(store.allocated_bytes(), 2 * kSectorSize);
  std::vector<std::byte> out(2 * kSectorSize);
  store.read(100, 2, out);
  EXPECT_EQ(out, data) << "the last write wins";
}

TEST(SectorStore, UnwrittenNeighboursReadZeroAcrossAChunkBoundary) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  SectorStore store(kChunk * 4);
  const std::vector<std::byte> data(kSectorSize, std::byte{0xEE});
  // The last sector of chunk 0 and the second of chunk 1; chunk 2 is
  // never written.
  store.write(kChunk - 1, 1, data);
  store.write(kChunk + 1, 1, data);
  std::vector<std::byte> out(static_cast<std::size_t>(kChunk + 4) * kSectorSize,
                             std::byte{0x55});
  store.read(kChunk - 2, kChunk + 4, out);
  for (std::uint32_t s = 0; s < kChunk + 4; ++s) {
    const Lba lba = kChunk - 2 + s;
    const std::byte want = lba == kChunk - 1 || lba == kChunk + 1 ? std::byte{0xEE} : std::byte{0};
    EXPECT_EQ(out[static_cast<std::size_t>(s) * kSectorSize], want) << "lba " << lba;
    EXPECT_EQ(out[(s + 1) * kSectorSize - 1], want) << "lba " << lba;
  }
  EXPECT_FALSE(store.is_written(kChunk - 2));
  EXPECT_FALSE(store.is_written(kChunk));
  EXPECT_FALSE(store.is_written(2 * kChunk));
  EXPECT_EQ(store.allocated_bytes(), 2 * kSectorSize);
}

TEST(SectorStore, WrittenSectorCountIsExactUnderOverwrites) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  SectorStore store(kChunk * 2);
  std::vector<std::byte> eight(8 * kSectorSize, std::byte{0x11});
  store.write(0, 8, eight);
  EXPECT_EQ(store.written_sector_count(), 8u);
  store.write(4, 8, eight);  // overlaps 4 already-written sectors
  EXPECT_EQ(store.written_sector_count(), 12u);
  store.write(0, 8, eight);  // full overwrite: no change
  EXPECT_EQ(store.written_sector_count(), 12u);
  store.write(kChunk - 1, 2, std::vector<std::byte>(2 * kSectorSize));  // straddle
  EXPECT_EQ(store.written_sector_count(), 14u);
}

TEST(SectorStore, WipeReclaimsMemory) {
  constexpr std::uint32_t kChunk = SectorStore::kChunkSectors;
  SectorStore store(kChunk * 8);
  EXPECT_EQ(store.allocated_bytes(), 0u);
  std::vector<std::byte> data(kSectorSize, std::byte{0x42});
  for (Lba lba = 0; lba < kChunk * 8; lba += kChunk) store.write(lba, 1, data);
  // One 512-byte slot per single-sector write.
  EXPECT_EQ(store.allocated_bytes(), 8u * kSectorSize);
  EXPECT_EQ(store.written_sector_count(), 8u);
  store.wipe();
  EXPECT_EQ(store.allocated_bytes(), 0u);
  EXPECT_EQ(store.written_sector_count(), 0u);
  EXPECT_FALSE(store.is_written(0));
  // The store stays fully usable after the wipe.
  store.write(kChunk + 1, 1, data);
  EXPECT_TRUE(store.is_written(kChunk + 1));
  EXPECT_EQ(store.written_sector_count(), 1u);
  EXPECT_EQ(store.allocated_bytes(), kSectorSize);
}

}  // namespace
}  // namespace trail::disk

namespace trail::disk {
namespace {

TEST(WriteCache, AcksEarlyAndLosesOnCrash) {
  sim::Simulator sim;
  DiskProfile p = small_test_disk();
  p.write_cache_enabled = true;
  DiskDevice dev{sim, p};
  std::vector<std::byte> data(kSectorSize, std::byte{0x44});

  // Burst of 5 writes: all ack after ~overhead, long before media time.
  int acked = 0;
  for (int i = 0; i < 5; ++i)
    dev.write(static_cast<Lba>(i * 100), 1, data, [&] { ++acked; });
  sim.run_until(sim.now() + p.command_overhead + sim::micros(10));
  EXPECT_EQ(acked, 5) << "cache acks must not wait for the media";

  // Crash now: nothing (or almost nothing) reached the platter.
  dev.crash_halt();
  EXPECT_GE(dev.cached_writes_lost(), 4u);
  EXPECT_FALSE(dev.store().is_written(400));
}

TEST(WriteCache, MediaCommitRetiresDebt) {
  sim::Simulator sim;
  DiskProfile p = small_test_disk();
  p.write_cache_enabled = true;
  DiskDevice dev{sim, p};
  std::vector<std::byte> data(kSectorSize, std::byte{0x45});
  dev.write(10, 1, data, {});
  sim.run();  // media commit completes
  dev.crash_halt();
  EXPECT_EQ(dev.cached_writes_lost(), 0u);
  EXPECT_TRUE(dev.store().is_written(10));
}

TEST(WriteCache, DisabledByDefaultActsSynchronously) {
  sim::Simulator sim;
  DiskDevice dev{sim, small_test_disk()};
  std::vector<std::byte> data(kSectorSize, std::byte{0x46});
  bool acked = false;
  dev.write(10, 1, data, [&] { acked = true; });
  sim.run_until(sim.now() + dev.profile().command_overhead + sim::micros(10));
  EXPECT_FALSE(acked) << "WCE off: the ack waits for the media";
  sim.run();
  EXPECT_TRUE(acked);
  dev.crash_halt();
  EXPECT_EQ(dev.cached_writes_lost(), 0u);
}

}  // namespace
}  // namespace trail::disk
