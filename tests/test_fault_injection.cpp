// Failure-injection suite: media corruption and damaged metadata, beyond
// the clean power-cut crashes of test_recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::LogDiskLayout;
using disk::kSectorSize;

class FaultInjectionTest : public TrailFixture {
 protected:
  FaultInjectionTest() : TrailFixture(2) {}

  void corrupt_sector(disk::DiskDevice& dev, disk::Lba lba) {
    std::vector<std::byte> junk(kSectorSize);
    sim::Rng rng(lba * 7 + 1);
    for (auto& b : junk) b = std::byte(static_cast<std::uint8_t>(rng.next()));
    dev.store().write(lba, 1, junk);
  }
};

TEST_F(FaultInjectionTest, HeaderReplicaZeroCorruptionFallsBack) {
  start();
  write_sync({devices[0], 10}, make_pattern(2, 1));
  driver->unmount();
  driver.reset();

  // Destroy the primary header replica; mount must fall back to replica 1.
  const LogDiskLayout layout(log_disk->geometry());
  corrupt_sector(*log_disk, layout.header_lba(0));
  start();
  EXPECT_TRUE(driver->mounted());
  EXPECT_EQ(driver->epoch(), 2u);
  verify_all_acknowledged_durable();
}

TEST_F(FaultInjectionTest, AllReplicasCorruptedRefusesMount) {
  start();
  driver->unmount();
  driver.reset();
  const LogDiskLayout layout(log_disk->geometry());
  for (int r = 0; r < layout.replica_count(); ++r)
    corrupt_sector(*log_disk, layout.header_lba(r));
  // The driver refuses the disk outright: no replica carries the signature.
  EXPECT_THROW(core::TrailDriver(sim, *log_disk), std::invalid_argument);
}

TEST_F(FaultInjectionTest, ReplicaCorruptionDuringCrashStillRecovers) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 5; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, 10 + i));
  driver->crash();
  driver.reset();
  log_disk->restart();
  for (auto& d : data_disks) d->restart();
  // Replica 0 dies in the crash (e.g. a head landing): recovery must use
  // the survivors and still find the records.
  const LogDiskLayout layout(log_disk->geometry());
  corrupt_sector(*log_disk, layout.header_lba(0));
  start();
  EXPECT_EQ(driver->last_recovery().records_found, 5u);
  verify_all_acknowledged_durable();
}

TEST_F(FaultInjectionTest, GarbageOnUnusedTracksIsIgnored) {
  // Sprinkle random sectors over unused areas of a freshly formatted log
  // disk; they must not parse as records or derail recovery.
  start();
  sim::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto track = static_cast<disk::TrackId>(
        rng.uniform(10, static_cast<std::int64_t>(log_disk->geometry().track_count()) - 2));
    const auto base = log_disk->geometry().first_lba_of_track(track);
    corrupt_sector(*log_disk, base + static_cast<disk::Lba>(rng.uniform(
                                         0, log_disk->geometry().spt_of_track(track) - 1)));
  }
  for (auto& d : data_disks) d->crash_halt();
  write_sync({devices[0], 100}, make_pattern(2, 42));
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 1u);
  verify_all_acknowledged_durable();
}

TEST_F(FaultInjectionTest, AdversarialPayloadMimicsRecordHeader) {
  // Write user data that is a byte-exact serialized record header with a
  // huge sequence_id. If the first-byte escaping failed, recovery would
  // pick it up as "youngest" and follow garbage pointers.
  start();
  core::RecordHeader fake;
  fake.batch_size = 1;
  fake.epoch = 1;               // matches the live epoch
  fake.sequence_id = 0xFFFFFF;  // "newer" than anything real
  fake.prev_sect = 12345;
  fake.log_head = 12345;
  fake.entries.resize(1);
  std::vector<std::byte> payload(kSectorSize);
  core::serialize_record_header(fake, payload);

  for (auto& d : data_disks) d->crash_halt();
  bool acked = false;
  driver->submit_write({devices[0], 500}, 1, payload, [&] { acked = true; });
  pump(acked);
  write_sync({devices[0], 700}, make_pattern(1, 7));
  crash_and_remount();
  // Exactly the two real records; the fake header was escaped to payload.
  EXPECT_EQ(driver->last_recovery().records_found, 2u);
  // And the adversarial payload round-trips byte-exactly.
  std::vector<std::byte> got(kSectorSize);
  data_disks[0]->store().read(500, 1, got);
  EXPECT_EQ(got, payload);
}

TEST_F(FaultInjectionTest, TornPayloadMidChainThrows) {
  // Corrupting an *acknowledged* record's payload is data loss beyond the
  // crash contract; recovery must detect it loudly (CRC) instead of
  // replaying garbage.
  start();
  for (auto& d : data_disks) d->crash_halt();
  std::vector<disk::Lba> header_lbas;
  for (int i = 0; i < 3; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, 30 + i));
  driver->crash();
  driver.reset();
  log_disk->restart();
  for (auto& d : data_disks) d->restart();

  // Find the OLDEST record's payload on the log disk and flip a byte.
  // (Scan the store offline for record headers; easiest via classify.)
  disk::SectorBuf sector{};
  disk::Lba oldest_payload = 0;
  std::uint32_t best_seq = ~0u;
  for (disk::Lba lba = 0; lba < log_disk->geometry().total_sectors(); ++lba) {
    if (!log_disk->store().is_written(lba)) continue;
    log_disk->store().read(lba, 1, sector);
    const auto hdr = core::parse_record_header(sector);
    if (hdr && hdr->epoch == 1 && hdr->sequence_id < best_seq) {
      best_seq = hdr->sequence_id;
      oldest_payload = lba + 1;
    }
  }
  ASSERT_NE(best_seq, ~0u);
  log_disk->store().read(oldest_payload, 1, sector);
  sector[100] ^= std::byte{0x01};
  log_disk->store().write(oldest_payload, 1, sector);

  driver = std::make_unique<core::TrailDriver>(sim, *log_disk);
  for (auto& d : data_disks) (void)driver->add_data_disk(*d);
  EXPECT_THROW(driver->mount(), std::runtime_error);
  driver.reset();
  sim.run();
  // A mount that fails mid-walk has written the newest content of the
  // records above the failure, and nothing older: the corrupt record's
  // sectors are never written, the younger two at most hold their
  // acknowledged patterns.
  const disk::SectorStore& platter = data_disks[0]->store();
  EXPECT_FALSE(platter.is_written(0));
  EXPECT_FALSE(platter.is_written(1));
  for (int i = 1; i < 3; ++i) {
    const auto lba = static_cast<disk::Lba>(i * 4);
    const auto acked = make_pattern(2, 30 + static_cast<std::uint64_t>(i));
    std::vector<std::byte> got(2 * kSectorSize);
    platter.read(lba, 2, got);
    for (std::uint32_t s = 0; s < 2; ++s) {
      if (!platter.is_written(lba + s)) continue;
      EXPECT_EQ(std::memcmp(got.data() + s * kSectorSize, acked.data() + s * kSectorSize,
                            kSectorSize),
                0)
          << "lba " << lba + s;
    }
  }
}

// ---------------------------------------------------------------------------
// Power cuts inside a recovering mount, enumerated. The simulator is
// deterministic, so instead of sampling crash points the tests below cut
// the power after every simulator step of a recovering mount (locate,
// rebuild, phase-3 write-back or adoption, the epoch stamp and the head
// positioning), and nested, after every step of the mount that recovers
// from that cut.
// ---------------------------------------------------------------------------

/// Every written sector of each disk of a machine, log disk first.
using Image = std::vector<std::map<disk::Lba, disk::SectorBuf>>;
/// Last acknowledged content per (data disk index, lba).
using Acked = std::map<std::pair<std::size_t, disk::Lba>, disk::SectorBuf>;

/// One log disk and two data disks on a private simulator.
struct Machine {
  static constexpr std::size_t kDataDisks = 2;

  Machine() {
    for (std::size_t i = 0; i <= kDataDisks; ++i)
      disks.push_back(std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk()));
  }
  /// Power a machine on from a saved image.
  Machine(const Image& image, bool write_back) : Machine() {
    config.recovery_write_back = write_back;
    for (std::size_t d = 0; d < disks.size(); ++d)
      for (const auto& [lba, sector] : image[d]) disks[d]->store().write(lba, 1, sector);
  }

  [[nodiscard]] disk::DiskDevice& data_disk(std::size_t i) { return *disks[1 + i]; }

  [[nodiscard]] Image image() const {
    Image out(disks.size());
    for (std::size_t d = 0; d < disks.size(); ++d) {
      const disk::SectorStore& store = disks[d]->store();
      for (disk::Lba lba = 0; lba < store.total_sectors(); ++lba)
        if (store.is_written(lba)) store.read(lba, 1, out[d][lba]);
    }
    return out;
  }

  /// Boot a driver and step its mount one simulator event at a time. Cut
  /// the power after `steps` events and return false, unless the mount
  /// finishes first.
  bool mount_or_cut(std::uint64_t steps) {
    driver = std::make_unique<core::TrailDriver>(sim, *disks[0], config);
    devices.clear();
    for (std::size_t i = 0; i < kDataDisks; ++i)
      devices.push_back(driver->add_data_disk(data_disk(i)));
    bool mounted = false;
    driver->mount_async([&] { mounted = true; });
    for (std::uint64_t k = 0;; ++k) {
      if (mounted) return true;
      if (k == steps) break;
      if (!sim.step()) throw std::runtime_error("mount stalled");
    }
    cut();
    return false;
  }

  void cut() {
    driver->crash();
    driver.reset();
    for (auto& d : disks) d->restart();
  }

  /// Acknowledged sectors whose content is on the data-disk platters.
  [[nodiscard]] std::size_t acked_on_platters(const Acked& acked) {
    std::size_t n = 0;
    disk::SectorBuf got{};
    for (const auto& [key, sector] : acked) {
      data_disk(key.first).store().read(key.second, 1, got);
      n += got == sector ? 1 : 0;
    }
    return n;
  }

  /// Mount fully, drain, and require every acknowledged sector on the
  /// data-disk platters. The mount's locate must stay within its scan
  /// bound; `max_scanned` keeps the most it took.
  void recover_and_check(const Acked& acked, std::uint32_t& max_scanned) {
    ASSERT_TRUE(mount_or_cut(~std::uint64_t{0}));
    const std::uint32_t scanned = driver->last_recovery().tracks_scanned;
    EXPECT_LE(scanned, locate_scan_bound(disks[0]->geometry()));
    max_scanned = std::max(max_scanned, scanned);
    bool drained = false;
    driver->drain([&] { drained = true; });
    while (!drained) ASSERT_TRUE(sim.step()) << "drain stalled";
    EXPECT_EQ(acked_on_platters(acked), acked.size());
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<disk::DiskDevice>> disks;  // log disk first
  core::TrailConfig config;
  std::unique_ptr<core::TrailDriver> driver;
  std::vector<io::DeviceId> devices;
};

/// Ten acknowledged two-sector writes that rewrite four blocks over two
/// halted data disks, so every record is still pending at the power cut.
void crash_with_pending_records(Image& image, Acked& acked) {
  Machine m;
  core::format_log_disk(*m.disks[0]);
  ASSERT_TRUE(m.mount_or_cut(~std::uint64_t{0}));
  for (std::size_t i = 0; i < Machine::kDataDisks; ++i) m.data_disk(i).crash_halt();
  for (std::uint32_t i = 0; i < 10; ++i) {
    const std::size_t d = i % 2;
    const disk::Lba lba = (i / 2 % 2) * 4;
    const auto data = make_pattern(2, 600 + i);
    bool ok = false;
    m.driver->submit_write({m.devices[d], lba}, 2, data, [&] { ok = true; });
    while (!ok) ASSERT_TRUE(m.sim.step());
    for (std::uint32_t s = 0; s < 2; ++s)
      std::memcpy(acked[{d, lba + s}].data(), data.data() + s * kSectorSize, kSectorSize);
  }
  m.cut();
  image = m.image();
}

struct CutCounts {
  std::size_t single = 0;   // cuts inside the second boot's mount
  std::size_t partial = 0;  // ... leaving some, not all, acked sectors on the platters
  std::size_t nested = 0;   // cuts inside the third boot's mount
  std::uint32_t max_scanned = 0;  // locate's track scans, most in one full mount
};

/// Cut the second boot's mount after each step k2, and the third boot's
/// mount (recovering from that cut) after each step k3; after every cut,
/// a last boot must recover every acknowledged sector. Each case powers a
/// fresh machine on from a saved image, so no case replays the workload.
CutCounts cut_power_inside_recovery(bool write_back) {
  CutCounts counts;
  Image crashed;
  Acked acked;
  crash_with_pending_records(crashed, acked);
  if (::testing::Test::HasFatalFailure()) return counts;
  for (std::uint64_t k2 = 0;; ++k2) {
    SCOPED_TRACE("second boot cut after step " + std::to_string(k2));
    Machine second(crashed, write_back);
    if (second.mount_or_cut(k2)) break;
    ++counts.single;
    const std::size_t on_platters = second.acked_on_platters(acked);
    if (on_platters > 0 && on_platters < acked.size()) ++counts.partial;
    const Image cut2 = second.image();
    second.recover_and_check(acked, counts.max_scanned);
    if (::testing::Test::HasFailure()) return counts;
    for (std::uint64_t k3 = 0;; ++k3) {
      SCOPED_TRACE("third boot cut after step " + std::to_string(k3));
      Machine third(cut2, write_back);
      if (third.mount_or_cut(k3)) break;
      ++counts.nested;
      third.recover_and_check(acked, counts.max_scanned);
      if (::testing::Test::HasFailure()) return counts;
    }
  }
  ::testing::Test::RecordProperty("single_level_cuts", static_cast<int>(counts.single));
  ::testing::Test::RecordProperty("partial_write_back_cuts", static_cast<int>(counts.partial));
  ::testing::Test::RecordProperty("two_level_cuts", static_cast<int>(counts.nested));
  ::testing::Test::RecordProperty("max_tracks_scanned", static_cast<int>(counts.max_scanned));
  return counts;
}

TEST(PowerCutInsideRecovery, EveryMountStepUnderWriteBack) {
  const CutCounts counts = cut_power_inside_recovery(/*write_back=*/true);
  EXPECT_GT(counts.single, 0u);
  EXPECT_GT(counts.nested, 0u);
  // Some cut lands inside phase 3 itself: part of the write-back is on
  // the platters, the rest only on the log disk.
  EXPECT_GT(counts.partial, 0u);
}

TEST(PowerCutInsideRecovery, EveryMountStepUnderAdoption) {
  const CutCounts counts = cut_power_inside_recovery(/*write_back=*/false);
  EXPECT_GT(counts.single, 0u);
  EXPECT_GT(counts.nested, 0u);
}

}  // namespace
}  // namespace trail::testing
