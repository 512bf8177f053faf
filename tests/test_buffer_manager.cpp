#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/buffer_manager.hpp"

namespace trail::core {
namespace {

using disk::kSectorSize;

std::vector<std::byte> fill(std::uint32_t sectors, std::uint8_t v) {
  return std::vector<std::byte>(static_cast<std::size_t>(sectors) * kSectorSize, std::byte{v});
}

class BufferManagerTest : public ::testing::Test {
 protected:
  std::vector<RecordId> durable;
  BufferManager bm{[this](RecordId id) { durable.push_back(id); }};
  io::DeviceId dev{3, 0};
  io::DeviceId dev2{3, 1};
};

TEST_F(BufferManagerTest, RegisterPinsAndCovers) {
  bm.register_write(1, dev, 100, fill(4, 0xAA));
  EXPECT_EQ(bm.pinned_sectors(), 4u);
  EXPECT_TRUE(bm.covers(dev, 100, 4));
  EXPECT_TRUE(bm.covers(dev, 101, 2));
  EXPECT_FALSE(bm.covers(dev, 100, 5));
  EXPECT_FALSE(bm.covers(dev2, 100, 1));
  EXPECT_EQ(bm.pending_records(), 1u);
  EXPECT_FALSE(bm.record_settled(1));
}

TEST_F(BufferManagerTest, OverlayCopiesOnlyPinnedSectors) {
  bm.register_write(1, dev, 10, fill(2, 0xAA));
  auto buf = fill(4, 0x00);
  bm.overlay(dev, 9, 4, buf);  // sectors 9,12 unpinned; 10,11 pinned
  EXPECT_EQ(buf[0], std::byte{0x00});
  EXPECT_EQ(buf[kSectorSize], std::byte{0xAA});
  EXPECT_EQ(buf[2 * kSectorSize], std::byte{0xAA});
  EXPECT_EQ(buf[3 * kSectorSize], std::byte{0x00});
}

TEST_F(BufferManagerTest, SnapshotAndMarkDurableSettlesRecord) {
  bm.register_write(7, dev, 50, fill(3, 0x11));
  const auto img = bm.snapshot(dev, 50, 3);
  EXPECT_EQ(img.data, fill(3, 0x11));
  ASSERT_EQ(img.versions.size(), 3u);
  bm.mark_durable(dev, 50, img.versions);
  EXPECT_EQ(durable, std::vector<RecordId>{7});
  EXPECT_TRUE(bm.record_settled(7));
  EXPECT_EQ(bm.pinned_sectors(), 0u) << "settled sectors must unpin";
}

TEST_F(BufferManagerTest, SupersedingWriteCarriesOlderRecord) {
  // Record 1 writes sectors 0..3; record 2 overwrites 0..3 before the
  // write-back dispatches. The (single) write-back snapshots the LATEST
  // content; committing it settles BOTH records at once — the §4.2
  // "reclaimed simultaneously" behaviour.
  bm.register_write(1, dev, 0, fill(4, 0x01));
  bm.register_write(2, dev, 0, fill(4, 0x02));
  const auto img = bm.snapshot(dev, 0, 4);
  EXPECT_EQ(img.data, fill(4, 0x02)) << "snapshot must carry the newest content";
  bm.mark_durable(dev, 0, img.versions);
  EXPECT_EQ(durable, (std::vector<RecordId>{1, 2}));
  EXPECT_EQ(bm.pinned_sectors(), 0u);
}

TEST_F(BufferManagerTest, StaleWritebackDoesNotSettleNewerRecord) {
  bm.register_write(1, dev, 0, fill(2, 0x01));
  const auto img_old = bm.snapshot(dev, 0, 2);
  bm.register_write(2, dev, 0, fill(2, 0x02));  // supersedes after snapshot
  bm.mark_durable(dev, 0, img_old.versions);    // the old image landed
  EXPECT_EQ(durable, std::vector<RecordId>{1});
  EXPECT_FALSE(bm.record_settled(2));
  EXPECT_EQ(bm.pinned_sectors(), 2u) << "newer content still pinned";
  const auto img_new = bm.snapshot(dev, 0, 2);
  bm.mark_durable(dev, 0, img_new.versions);
  EXPECT_EQ(durable, (std::vector<RecordId>{1, 2}));
}

TEST_F(BufferManagerTest, PartialOverlapSettlesPerSector) {
  bm.register_write(1, dev, 0, fill(4, 0x01));   // sectors 0-3
  bm.register_write(2, dev, 2, fill(4, 0x02));   // sectors 2-5
  // Write back record 2's range only.
  const auto img = bm.snapshot(dev, 2, 4);
  bm.mark_durable(dev, 2, img.versions);
  EXPECT_EQ(durable, std::vector<RecordId>{2});
  EXPECT_FALSE(bm.record_settled(1)) << "sectors 0-1 still pending";
  const auto img1 = bm.snapshot(dev, 0, 2);
  bm.mark_durable(dev, 0, img1.versions);
  EXPECT_EQ(durable, (std::vector<RecordId>{2, 1}));
}

TEST_F(BufferManagerTest, RangeSettledTracksLatestVersions) {
  bm.register_write(1, dev, 0, fill(2, 0x01));
  EXPECT_FALSE(bm.range_settled(dev, 0, 2));
  const auto img = bm.snapshot(dev, 0, 2);
  bm.mark_durable(dev, 0, img.versions);
  EXPECT_TRUE(bm.range_settled(dev, 0, 2));
  EXPECT_TRUE(bm.range_settled(dev, 100, 4)) << "untouched ranges count as settled";
}

TEST_F(BufferManagerTest, CoverPinKeepsSectorResident) {
  bm.register_write(1, dev, 0, fill(2, 0x01));
  bm.pin_range(dev, 0, 2);
  const auto img = bm.snapshot(dev, 0, 2);
  bm.mark_durable(dev, 0, img.versions);
  EXPECT_TRUE(bm.record_settled(1));
  EXPECT_EQ(bm.pinned_sectors(), 2u) << "cover pin must hold the sectors";
  // Snapshot still possible for a queued-but-stale write-back.
  EXPECT_NO_THROW(bm.snapshot(dev, 0, 2));
  bm.unpin_range(dev, 0, 2);
  EXPECT_EQ(bm.pinned_sectors(), 0u);
}

TEST_F(BufferManagerTest, PinErrors) {
  EXPECT_THROW(bm.pin_range(dev, 0, 1), std::logic_error);
  bm.register_write(1, dev, 0, fill(1, 0x01));
  EXPECT_THROW(bm.unpin_range(dev, 0, 1), std::logic_error);
}

TEST_F(BufferManagerTest, SnapshotOfUnpinnedThrows) {
  EXPECT_THROW(bm.snapshot(dev, 0, 1), std::logic_error);
}

TEST_F(BufferManagerTest, MultiDeviceIsolation) {
  bm.register_write(1, dev, 0, fill(1, 0x01));
  bm.register_write(2, dev2, 0, fill(1, 0x02));
  auto img = bm.snapshot(dev, 0, 1);
  EXPECT_EQ(img.data, fill(1, 0x01));
  bm.mark_durable(dev, 0, img.versions);
  EXPECT_EQ(durable, std::vector<RecordId>{1});
  EXPECT_FALSE(bm.record_settled(2));
}

TEST_F(BufferManagerTest, HighWaterMarkMonotone) {
  bm.register_write(1, dev, 0, fill(8, 0x01));
  const auto high = bm.pinned_bytes_high_water();
  EXPECT_EQ(high, 8 * kSectorSize);
  auto img = bm.snapshot(dev, 0, 8);
  bm.mark_durable(dev, 0, img.versions);
  EXPECT_EQ(bm.pinned_bytes(), 0u);
  EXPECT_EQ(bm.pinned_bytes_high_water(), high);
}

TEST_F(BufferManagerTest, SteadyCycleReusesFreedPayload) {
  // Each record logs 2 sectors at a fresh LBA and is written back after
  // kInFlight newer ones: the pinned set peaks at kInFlight records, and
  // every later pin reuses a released record's payload.
  constexpr std::uint32_t kInFlight = 4;
  constexpr std::uint32_t kRecords = 1000;
  for (RecordId r = 0; r < kRecords; ++r) {
    const disk::Lba lba = r * 37;
    bm.register_write(r, dev, lba, fill(2, static_cast<std::uint8_t>(r)));
    bm.pin_range(dev, lba, 2);
    if (r < kInFlight) continue;
    const disk::Lba old = (r - kInFlight) * 37;
    const auto img = bm.snapshot(dev, old, 2);
    EXPECT_EQ(img.data, fill(2, static_cast<std::uint8_t>(r - kInFlight)));
    bm.mark_durable(dev, old, img.versions);
    bm.unpin_range(dev, old, 2);
  }
  EXPECT_EQ(durable.size(), kRecords - kInFlight);
  EXPECT_EQ(bm.pinned_sectors(), 2 * kInFlight);
  EXPECT_EQ(bm.pinned_bytes_high_water(), (kInFlight + 1) * 2 * kSectorSize);
  EXPECT_EQ(bm.allocated_bytes(), bm.pinned_bytes_high_water())
      << "freed payload must be reused, not grown past the peak";
}

TEST_F(BufferManagerTest, RejectsBadInput) {
  EXPECT_THROW(bm.register_write(1, dev, 0, std::vector<std::byte>(100)), std::invalid_argument);
  EXPECT_THROW(bm.register_write(1, dev, 0, {}), std::invalid_argument);
  EXPECT_THROW(BufferManager(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace trail::core
