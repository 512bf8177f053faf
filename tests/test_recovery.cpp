#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "audit/log_verifier.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::TrailConfig;
using disk::kSectorSize;

class RecoveryTest : public TrailFixture {
 protected:
  RecoveryTest() : TrailFixture(2) {}

  /// Write n records without letting write-back run (data disks crashed
  /// first), so all of them are pending at the crash.
  void write_pending(int n, std::uint64_t seed, std::uint32_t sectors = 1) {
    for (auto& d : data_disks) d->crash_halt();  // block write-back
    for (int i = 0; i < n; ++i)
      write_sync({devices[static_cast<std::size_t>(i) % devices.size()],
                  static_cast<disk::Lba>(i) * sectors},
                 make_pattern(sectors, seed + static_cast<std::uint64_t>(i)));
  }
};

TEST_F(RecoveryTest, CrashBeforeWritebackRecoversAll) {
  start();
  write_pending(10, 100);
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 10u);
  settle();
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, CrashAfterSettleRecoversNothingPending) {
  start();
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 2)}, make_pattern(2, 50 + i));
  settle();
  crash_and_remount();
  // Everything was committed before the crash. log_head bounds the walk
  // to records that were live when the *youngest* record was appended, so
  // a few already-committed records may be replayed (harmlessly), but
  // never more than were ever written.
  EXPECT_LE(driver->last_recovery().records_found, 6u);
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, RecoveryWritesBackInOrder_LatestVersionWins) {
  start();
  // Three writes to the SAME address with different content, none written
  // back. Replay must leave the newest on the data disk.
  for (auto& d : data_disks) d->crash_halt();
  const io::BlockAddr addr{devices[0], 40};
  write_sync(addr, make_pattern(2, 1));
  write_sync(addr, make_pattern(2, 2));
  const auto last = make_pattern(2, 3);
  write_sync(addr, last);
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 3u);
  std::vector<std::byte> got(2 * kSectorSize);
  data_disks[0]->store().read(40, 2, got);
  EXPECT_EQ(got, last);
}

TEST_F(RecoveryTest, NewestWriteInsideOneRecordWins) {
  start();
  // Three writes to one sector, back to back: the first occupies the log
  // disk, so the next two batch into one record, where the higher entry
  // index is the later write.
  for (auto& d : data_disks) d->crash_halt();
  std::vector<std::vector<std::byte>> versions;
  int acked = 0;
  for (int i = 0; i < 3; ++i) {
    versions.push_back(make_pattern(1, 70 + static_cast<std::uint64_t>(i)));
    driver->submit_write({devices[0], 40}, 1, versions.back(), [&acked] { ++acked; });
  }
  while (acked < 3) ASSERT_TRUE(sim.step());
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 2u);
  EXPECT_EQ(driver->last_recovery().sectors_written_back, 1u);
  std::vector<std::byte> got(kSectorSize);
  data_disks[0]->store().read(40, 1, got);
  EXPECT_EQ(got, versions[2]);
}

TEST_F(RecoveryTest, UnacknowledgedTornWriteIsDropped) {
  start();
  write_pending(3, 7);
  // Submit one more write and crash in the middle of its log transfer.
  bool acked = false;
  driver->submit_write({devices[0], 900}, 8, make_pattern(8, 99), [&] { acked = true; });
  // Let the physical write start (overhead elapses) then crash mid-media.
  sim.run_until(sim.now() + log_profile_.command_overhead + log_profile_.sector_time(0) * 3);
  EXPECT_FALSE(acked);
  crash_and_remount();
  EXPECT_TRUE(acked == false);
  // The torn record was dropped; the 3 acknowledged ones recovered.
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.records_found, 3u);
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, RecoveryWithoutWritebackAdoptsPending) {
  start();
  write_pending(8, 500);
  TrailConfig cfg;
  cfg.recovery_write_back = false;  // Fig. 4b: skip phase 3
  crash_and_remount(cfg);
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.records_found, 8u);
  EXPECT_EQ(rs.writeback_time.ns(), 0);
  EXPECT_EQ(rs.sectors_written_back, 0u);
  // The pending records are live again (the background write-back may
  // already have drained some during the rest of mount).
  verify_all_acknowledged_durable();
  // ...and the background write-back eventually drains them.
  settle();
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, DoubleCrashAfterAdoptionStillRecovers) {
  start();
  write_pending(5, 800);
  TrailConfig cfg;
  cfg.recovery_write_back = false;
  crash_and_remount(cfg);  // epoch 2 adopts epoch-1 records
  EXPECT_EQ(driver->last_recovery().records_found, 5u);
  // Crash again immediately: write-back never ran, and the pending
  // records now belong to an *older* epoch than the crashed one.
  crash_and_remount();  // default: write back
  EXPECT_EQ(driver->last_recovery().records_found, 5u);
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, DoubleCrashWithNewEpochWritesMergesBothEpochs) {
  start();
  write_pending(4, 900);
  TrailConfig cfg;
  cfg.recovery_write_back = false;
  crash_and_remount(cfg);
  // New epoch writes more records (write-back still blocked).
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 3; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(200 + i * 2)}, make_pattern(2, 950 + i));
  crash_and_remount();
  // At least the 3 epoch-2 records, plus whichever adopted epoch-1
  // records had not yet settled during the adoption mount: the chain must
  // cross the epoch boundary when any remain.
  const auto found = driver->last_recovery().records_found;
  EXPECT_GE(found, 3u);
  EXPECT_LE(found, 7u);
  verify_all_acknowledged_durable();
  settle();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, SequentialLocateFindsSameRecords) {
  start();
  write_pending(6, 321);
  TrailConfig cfg;
  cfg.recovery_sequential_locate = true;
  crash_and_remount(cfg);
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.records_found, 6u);
  EXPECT_EQ(rs.tracks_scanned, 77u);  // every usable track
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, BinarySearchScansFewTracksOnWrappedLog) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one record per track: stamp fast
  start(cfg);
  // Stamp (nearly) the whole ring so the arc is long.
  for (int i = 0; i < 150; ++i) {
    write_sync({devices[0], static_cast<disk::Lba>(i % 64)}, make_pattern(1, i));
    sim.run_until(sim.now() + sim::millis(6));  // allow write-back + switch
  }
  settle();
  for (auto& d : data_disks) d->crash_halt();
  write_sync({devices[0], 999}, make_pattern(1, 999));
  crash_and_remount();
  const auto& rs = driver->last_recovery();
  // The stamped resume track plus one binary search over the 77-track
  // ring: 1 + ceil(lg 77) scans.
  EXPECT_LE(rs.tracks_scanned, 8u);
  EXPECT_GE(rs.records_found, 1u);
  verify_all_acknowledged_durable();
}

// A power cut before the first record leaves the resume track the first
// mount stamped unstamped, and the track before it too: the ring is
// empty, and locate says so in two scans instead of reading every track.
TEST_F(RecoveryTest, PowerCutBeforeTheFirstRecordLocatesInTwoScans) {
  start();
  crash_and_remount();
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.tracks_scanned, 2u);
  EXPECT_EQ(rs.records_found, 0u);
  write_sync({devices[0], 8}, make_pattern(2, 11));
  settle();
  verify_expected_on_data_disks();
}

// A recovering mount resumes right after the youngest record it keeps,
// on an unstamped track. A second cut before any new record locates that
// record on the track before the resume track, in two scans: written
// back, it is older than the pending epoch and nothing is pending;
// adopted, all five records are pending again.
TEST_F(RecoveryTest, CutRightAfterARecoveringMountLocatesInTwoScans) {
  for (const bool write_back : {true, false}) {
    SCOPED_TRACE(write_back ? "write-back" : "adopt");
    core::format_log_disk(*log_disk);
    TrailConfig cfg;
    cfg.track_utilization_threshold = 0.0;  // one record per track
    cfg.recovery_write_back = write_back;
    start(cfg);
    write_pending(5, 61);
    crash_and_remount(cfg);
    EXPECT_EQ(driver->last_recovery().records_found, 5u);
    crash_and_remount(cfg);
    const auto& rs = driver->last_recovery();
    EXPECT_EQ(rs.tracks_scanned, 2u);
    EXPECT_EQ(rs.records_found, write_back ? 0u : 5u);
    verify_all_acknowledged_durable();
    settle();
    verify_expected_on_data_disks();
    driver->unmount();
  }
}

// Locate starts on the crashed header's resume track, so a header naming
// a reserved or nonexistent track is corrupt: the mount throws.
TEST_F(RecoveryTest, CrashedHeaderWithoutAUsableResumeTrackThrows) {
  const core::LogDiskLayout layout(log_disk->geometry());
  for (const disk::TrackId resume : {layout.replica_track(0), log_disk->geometry().track_count()}) {
    SCOPED_TRACE("resume_track " + std::to_string(resume));
    core::format_log_disk(*log_disk);
    start();
    write_pending(3, 71);
    driver->crash();
    driver.reset();
    disk::SectorBuf sector{};
    core::serialize_disk_header(core::LogDiskHeader{1, 0, resume}, sector);
    for (int r = 0; r < layout.replica_count(); ++r)
      log_disk->store().write(layout.header_lba(r), 1, sector);
    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    driver = std::make_unique<core::TrailDriver>(sim, *log_disk);
    for (auto& d : data_disks) (void)driver->add_data_disk(*d);
    EXPECT_THROW(driver->mount(), std::runtime_error);
    driver.reset();
    sim.run();
  }
}

TEST_F(RecoveryTest, RecoveryStatsPhasesAreTimed) {
  start();
  write_pending(12, 4000, 2);
  crash_and_remount();
  const auto& rs = driver->last_recovery();
  EXPECT_GT(rs.locate_time.ns(), 0);
  EXPECT_GT(rs.rebuild_time.ns(), 0);
  EXPECT_GT(rs.writeback_time.ns(), 0);
  EXPECT_EQ(rs.records_found, 12u);
  EXPECT_EQ(rs.sectors_written_back, 24u);
}

TEST_F(RecoveryTest, CrashDuringRepositionLosesNothing) {
  start();
  const auto data = make_pattern(8, 60);  // 8 sectors: exceeds 30% threshold
  write_sync({devices[0], 80}, data);
  // The driver is now repositioning to the next track; crash mid-flight.
  sim.run_until(sim.now() + sim::micros(300));
  crash_and_remount();
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, RepeatedCrashCyclesPreserveEverything) {
  start();
  std::uint64_t seed = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    // Some settled writes, some pending, then crash.
    for (int i = 0; i < 4; ++i)
      write_sync({devices[static_cast<std::size_t>(i) % 2],
                  static_cast<disk::Lba>((cycle * 16 + i) * 2)},
                 make_pattern(2, seed++));
    settle();
    for (auto& d : data_disks) d->crash_halt();
    for (int i = 0; i < 3; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(300 + cycle * 8 + i * 2)},
                 make_pattern(2, seed++));
    crash_and_remount(cycle % 2 == 0 ? TrailConfig{}
                                     : [] {
                                         TrailConfig c;
                                         c.recovery_write_back = false;
                                         return c;
                                       }());
    verify_all_acknowledged_durable();
  }
  settle();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, RandomizedCrashPointsNeverLoseAckedWrites) {
  // Property: crash at an arbitrary moment during a random write storm;
  // after recovery every acknowledged write is intact.
  sim::Rng rng(20260707);
  for (int trial = 0; trial < 8; ++trial) {
    expected_.clear();
    log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
    core::format_log_disk(*log_disk);
    data_disks.clear();
    for (int i = 0; i < 2; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile_));
    start();

    // Fire-and-record storm: submissions at random times, tracking acks.
    struct Tracked {
      io::BlockAddr addr;
      std::vector<std::byte> data;
      bool acked = false;
    };
    std::vector<std::unique_ptr<Tracked>> writes;
    sim::TimePoint t = sim.now();
    for (int i = 0; i < 30; ++i) {
      auto w = std::make_unique<Tracked>();
      const auto count = static_cast<std::uint32_t>(rng.uniform(1, 6));
      w->addr = {devices[static_cast<std::size_t>(rng.uniform(0, 1))],
                 static_cast<disk::Lba>(rng.uniform(0, 200))};
      w->data = make_pattern(count, rng.next());
      Tracked* raw = w.get();
      t += sim::micros(rng.uniform(0, 4000));
      sim.schedule_at(t, [this, raw, count] {
        if (!driver || !driver->mounted()) return;
        driver->submit_write(raw->addr, count, raw->data, [raw] { raw->acked = true; });
      });
      writes.push_back(std::move(w));
    }
    const sim::TimePoint crash_at = sim.now() + sim::micros(rng.uniform(500, 120'000));
    sim.run_until(crash_at);
    crash_and_remount();
    settle();

    // Later writes to the same sector supersede earlier ones; build the
    // expected final state from ack order (which equals submission order
    // here since the driver acks in order). Sectors also touched by an
    // UNacknowledged write are indeterminate — a crashed multi-sector
    // write may legitimately be partially applied — so skip them.
    std::map<std::pair<std::uint16_t, disk::Lba>, const Tracked*> latest;
    std::set<std::pair<std::uint16_t, disk::Lba>> indeterminate;
    for (const auto& w : writes) {
      const auto sectors = w->data.size() / kSectorSize;
      for (std::size_t s = 0; s < sectors; ++s) {
        const std::pair<std::uint16_t, disk::Lba> key{w->addr.device.index(), w->addr.lba + s};
        if (w->acked)
          latest[key] = w.get();
        else
          indeterminate.insert(key);
      }
    }
    for (const auto& [key, w] : latest) {
      if (indeterminate.contains(key)) continue;
      std::vector<std::byte> got(kSectorSize);
      const auto lba = key.second;
      data_disks[key.first & 0xFF]->store().read(lba, 1, got);
      const std::size_t off = static_cast<std::size_t>(lba - w->addr.lba) * kSectorSize;
      EXPECT_EQ(std::memcmp(got.data(), w->data.data() + off, kSectorSize), 0)
          << "trial " << trial << " lost acked sector at lba " << lba;
    }
    driver->unmount();
    driver.reset();
  }
}

}  // namespace
}  // namespace trail::testing

namespace trail::testing {
namespace {

// Regression: repeated mount/unmount cycles used to advance the resume
// tail PAST the stored track without stamping it, leaving stale-keyed
// "dip" tracks inside the ring that broke the locate binary search's
// circular monotonicity (found by examples/torture, seed 7, iteration 16).
TEST_F(RecoveryTest, ManyMountCyclesKeepRingSearchable) {
  start();
  for (int cycle = 0; cycle < 25; ++cycle) {
    for (int i = 0; i < 3; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(cycle * 8 + i * 2)},
                 make_pattern(1, static_cast<std::uint64_t>(cycle) * 10 + i));
    settle();
    driver->unmount();
    driver.reset();
    start();
  }
  // Crash with pending records: recovery must find THIS epoch's chain,
  // not an older epoch's.
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(500 + i * 2)}, make_pattern(1, 900 + i));
  crash_and_remount();
  EXPECT_GE(driver->last_recovery().records_found, 4u);
  EXPECT_LE(driver->last_recovery().tracks_scanned, locate_scan_bound(log_disk->geometry()));
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

// Regression: a clean unmount leaves the previous epoch's records on the
// tail track the next mount resumes on. A power cut before the new epoch
// logs an intact record must replay nothing: those records were already
// written back, and replaying a chain whose newest header the torn write
// destroyed would put an older version over an acknowledged write.
TEST_F(RecoveryTest, PowerCutDuringFirstWriteAfterCleanRemountReplaysNothing) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 1.0;
  start(cfg);
  std::uint64_t seed = 1;
  for (std::uint32_t k = 0; k <= 8; ++k) {
    SCOPED_TRACE("power cut " + std::to_string(k) + " sector times into the write");
    for (int i = 0; i < 8; ++i) write_sync({devices[0], 40}, make_pattern(2, seed++));
    settle();
    driver->unmount();
    driver.reset();
    start(cfg);
    driver->submit_write({devices[1], 900}, 8, make_pattern(8, seed++), [] {});
    sim.run_until(sim.now() + log_profile_.command_overhead + log_profile_.sector_time(0) * k);
    driver->crash();
    driver.reset();
    audit::LogCensus census;
    (void)audit::verify_log(*log_disk, {}, &census);
    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    start(cfg);
    EXPECT_EQ(driver->last_recovery().records_found, 0u);
    EXPECT_EQ(census.chain_length, driver->last_recovery().records_found);
    verify_expected_on_data_disks();
  }
}

// Regression: a request split across physical writes could have its early
// parts superseded (and unpinned) before the full-range write-back was
// enqueued, tripping the pin bookkeeping (found by examples/torture).
TEST_F(RecoveryTest, SplitRequestSupersededMidFlight) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // force small tracks -> splits
  start(cfg);
  // A 30-sector write must split across several physical writes on the
  // 16-24 sector tracks; while it is in flight, overwrite its head range.
  bool big_acked = false;
  driver->submit_write({devices[0], 100}, 30, make_pattern(30, 1),
                       [&] { big_acked = true; });
  bool small_acked = false;
  const auto small = make_pattern(4, 2);
  driver->submit_write({devices[0], 100}, 4, small, [&] { small_acked = true; });
  pump(big_acked);
  pump(small_acked);
  settle();
  // The overwrite wins on its range; the tail of the big write survives.
  std::vector<std::byte> got(4 * kSectorSize);
  data_disks[0]->store().read(100, 4, got);
  EXPECT_EQ(got, small);
  const auto big = make_pattern(30, 1);
  std::vector<std::byte> tail(kSectorSize);
  data_disks[0]->store().read(120, 1, tail);
  EXPECT_EQ(std::memcmp(tail.data(), big.data() + 20 * kSectorSize, kSectorSize), 0);
}

/// A ring full of adopted records mounts. With the data disks halted,
/// threshold 0 and one request per physical write, every write stamps
/// one record on its own track until all 77 usable tracks of
/// small_test_disk are pinned: 77 of 120 writes ack. The adopting remount
/// finds the track after the youngest record still pinned, so the log
/// starts the new epoch in the log-full stall, and takes a new write once
/// write-back frees a track.
TEST_F(RecoveryTest, FullRingMountsAndResumesOnceWriteBackFreesATrack) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;
  cfg.max_requests_per_physical = 1;
  start(cfg);
  for (auto& d : data_disks) d->crash_halt();
  int acked = 0;
  for (int i = 0; i < 120; ++i) {
    const io::BlockAddr addr{devices[static_cast<std::size_t>(i) % 2],
                             static_cast<disk::Lba>(i * 3)};
    auto data = std::make_shared<std::vector<std::byte>>(
        make_pattern(1, 7000 + static_cast<std::uint64_t>(i)));
    driver->submit_write(addr, 1, *data, [this, &acked, addr, data] {
      ++acked;
      expected_[{addr.device.index(), addr.lba}] = *data;
    });
  }
  sim.run_until(sim.now() + sim::seconds(5));
  ASSERT_EQ(acked, 77);
  EXPECT_EQ(driver->stats().log_full_stalls, 1u);

  cfg.recovery_write_back = false;
  crash_and_remount(cfg);
  EXPECT_EQ(driver->last_recovery().records_found, 77u);
  write_sync({devices[0], 1000}, make_pattern(2, 424242));
  settle();
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

// ---------------------------------------------------------------------------
// Recovery equivalence: the depth knob is a pure performance lever. Every
// depth runs one algorithm, so instead of comparing depths against each
// other alone, each run is held to references that share no code with
// recovery: the live chain read off the crashed image by the offline
// verifier, and a shadow of the last acknowledged pattern per address.
// ---------------------------------------------------------------------------

/// Full snapshot of a platter, with unwritten sectors distinguished from
/// zero-filled ones so image comparison is exact.
struct DiskSnapshot {
  std::vector<std::byte> bytes;
  std::vector<bool> written;
  bool operator==(const DiskSnapshot&) const = default;
};

DiskSnapshot snapshot_disk(const disk::DiskDevice& dev) {
  const disk::Lba total = dev.store().total_sectors();
  DiskSnapshot snap;
  snap.bytes.resize(static_cast<std::size_t>(total) * kSectorSize);
  snap.written.resize(static_cast<std::size_t>(total));
  for (disk::Lba l = 0; l < total; ++l) {
    if (!dev.store().is_written(l)) continue;
    snap.written[static_cast<std::size_t>(l)] = true;
    dev.store().read(l, 1,
                     std::span<std::byte>(snap.bytes).subspan(
                         static_cast<std::size_t>(l) * kSectorSize, kSectorSize));
  }
  return snap;
}

/// The live chain of a crashed image as the offline verifier sees it:
/// every log disk's census, joined on encoded log pointers and walked
/// back along prev_sect from the youngest intact record to its log_head
/// bound.
struct ReferenceChain {
  std::set<std::uint64_t> keys;  // record keys on the live chain
  std::uint32_t torn = 0;        // torn records newer than the youngest intact
};

ReferenceChain reference_chain(const std::vector<std::unique_ptr<disk::DiskDevice>>& log_disks) {
  std::map<std::uint32_t, audit::LogRecord> by_ptr;
  for (std::size_t u = 0; u < log_disks.size(); ++u) {
    audit::LogCensus census;
    (void)audit::verify_log(*log_disks[u], {}, &census);
    for (const audit::LogRecord& rec : census.records)
      by_ptr.emplace(core::encode_log_ptr(static_cast<std::uint8_t>(u),
                                          static_cast<std::uint32_t>(rec.header_lba)),
                     rec);
  }
  ReferenceChain ref;
  std::optional<std::uint32_t> youngest;
  for (const auto& [ptr, rec] : by_ptr)
    if (rec.payload_intact && (!youngest || core::record_key(rec.header) >
                                                core::record_key(by_ptr.at(*youngest).header)))
      youngest = ptr;
  if (!youngest) return ref;
  const audit::LogRecord& top = by_ptr.at(*youngest);
  for (const auto& [ptr, rec] : by_ptr)
    if (!rec.payload_intact && core::record_key(rec.header) > core::record_key(top.header))
      ++ref.torn;
  for (std::uint32_t ptr = *youngest;;) {
    const audit::LogRecord& rec = by_ptr.at(ptr);
    ref.keys.insert(core::record_key(rec.header));
    if (ptr == top.header.log_head || rec.header.prev_sect == core::kNoPrevRecord) break;
    ptr = rec.header.prev_sect;
  }
  return ref;
}

struct EquivOutcome {
  core::RecoveryStats stats;
  std::vector<DiskSnapshot> log_images;
  std::vector<DiskSnapshot> data_images;
};

/// The pending set RecoveryManager reads off the crashed log disks at
/// `depth`: recovery only reads the log, so it runs before the remount.
std::set<std::uint64_t> recovered_keys(sim::Simulator& sim, std::vector<disk::DiskDevice*> logs,
                                       std::uint32_t depth) {
  std::vector<core::LogDiskHeader> headers;
  for (disk::DiskDevice* log : logs) {
    bool read = false;
    core::read_disk_header(*log, [&](std::optional<core::LogDiskHeader> header) {
      if (!header) throw std::runtime_error("no valid log disk header replica");
      headers.push_back(*header);
      read = true;
    });
    while (!read)
      if (!sim.step()) throw std::runtime_error("header read stalled");
  }
  core::RecoveryManager recovery(sim, std::move(logs));
  core::RecoveryManager::Options opts;
  opts.pipeline_depth = depth;
  std::set<std::uint64_t> keys;
  bool done = false;
  recovery.start(headers, opts, {},
                 [&](core::RecoveryManager::Outcome outcome) {
                   for (const core::RecoveredRecord& rec : outcome.pending)
                     keys.insert(core::record_key(rec.header));
                   done = true;
                 });
  while (!done)
    if (!sim.step()) throw std::runtime_error("recovery stalled");
  return keys;
}

/// Deterministic workload -> crash -> remount at `depth` over
/// `log_disk_count` log disks; everything up to the remount is identical
/// across calls. Checks the run against the references and returns the
/// outcome for cross-depth comparison.
EquivOutcome run_equivalence_scenario(std::uint32_t depth, bool write_back,
                                      std::size_t log_disk_count = 1) {
  SCOPED_TRACE("depth " + std::to_string(depth) + ", " + std::to_string(log_disk_count) +
               " log disk(s), write_back " + std::to_string(write_back));
  sim::Simulator sim;
  const disk::DiskProfile profile = disk::small_test_disk();
  std::vector<std::unique_ptr<disk::DiskDevice>> log_disks;
  std::vector<disk::DiskDevice*> log_ptrs;
  for (std::size_t i = 0; i < log_disk_count; ++i) {
    log_disks.push_back(std::make_unique<disk::DiskDevice>(sim, profile));
    core::format_log_disk(*log_disks.back());
    log_ptrs.push_back(log_disks.back().get());
  }
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  for (int i = 0; i < 2; ++i)
    data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, profile));

  auto pump = [&sim](const bool& flag) {
    while (!flag)
      if (!sim.step()) throw std::runtime_error("equivalence scenario stalled");
  };

  auto driver = std::make_unique<core::TrailDriver>(sim, log_ptrs, core::TrailConfig{});
  std::vector<io::DeviceId> devices;
  for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
  driver->mount();

  // All writes stay pending (data disks halted), with same-address
  // rewrites so write-back ordering is observable, then one torn tail.
  // `shadow` keeps the last acknowledged pattern per (data disk, lba).
  std::map<std::pair<std::size_t, disk::Lba>, std::vector<std::byte>> shadow;
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 24; ++i) {
    bool acked = false;
    const std::size_t disk_index = static_cast<std::size_t>(i) % 2;
    const auto lba = static_cast<disk::Lba>((i % 6) * 4);
    const auto data = make_pattern(2, 1000 + static_cast<std::uint64_t>(i));
    driver->submit_write({devices[disk_index], lba}, 2, data, [&] { acked = true; });
    pump(acked);
    for (std::uint32_t s = 0; s < 2; ++s)
      shadow[{disk_index, lba + s}].assign(data.begin() + s * kSectorSize,
                                           data.begin() + (s + 1) * kSectorSize);
  }
  const auto torn = make_pattern(8, 4242);
  driver->submit_write({devices[0], 900}, 8, torn, [] {});
  sim.run_until(sim.now() + profile.command_overhead + profile.sector_time(0) * 3);
  driver->crash();
  driver.reset();

  const ReferenceChain ref = reference_chain(log_disks);
  EXPECT_FALSE(ref.keys.empty());
  if (log_disk_count == 1) {
    audit::LogCensus census;
    (void)audit::verify_log(*log_disks[0], {}, &census);
    EXPECT_EQ(census.chain_length, ref.keys.size());
  }

  for (auto& d : log_disks) d->restart();
  for (auto& d : data_disks) d->restart();
  EXPECT_EQ(recovered_keys(sim, log_ptrs, depth), ref.keys);
  core::TrailConfig rcfg;
  rcfg.recovery_pipeline_depth = depth;
  rcfg.recovery_write_back = write_back;
  driver = std::make_unique<core::TrailDriver>(sim, log_ptrs, rcfg);
  devices.clear();
  for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
  driver->mount();
  EquivOutcome out;
  out.stats = driver->last_recovery();
  EXPECT_EQ(out.stats.records_found, ref.keys.size());
  EXPECT_EQ(out.stats.records_dropped_torn, ref.torn);
  for (auto& d : log_disks) out.log_images.push_back(snapshot_disk(*d));
  if (log_disk_count == 1) {  // verify_log walks a single disk's chain
    const audit::Report fsck = audit::verify_log(*log_disks[0]);
    EXPECT_TRUE(fsck.ok()) << fsck.to_string();
  }
  driver->unmount();

  // Drained: each data disk holds exactly the shadow — every acknowledged
  // address with its last pattern, and nothing else (so the torn,
  // unacknowledged 8-sector write never appears).
  for (std::size_t i = 0; i < data_disks.size(); ++i) {
    out.data_images.push_back(snapshot_disk(*data_disks[i]));
    const DiskSnapshot& img = out.data_images.back();
    for (std::size_t l = 0; l < img.written.size(); ++l) {
      const auto it = shadow.find({i, static_cast<disk::Lba>(l)});
      if (it == shadow.end()) {
        EXPECT_FALSE(img.written[l]) << "data disk " << i << " lba " << l << " never acked";
        continue;
      }
      EXPECT_TRUE(img.written[l]) << "data disk " << i << " lba " << l << " lost";
      EXPECT_EQ(std::memcmp(img.bytes.data() + l * kSectorSize, it->second.data(), kSectorSize),
                0)
          << "data disk " << i << " lba " << l << " stale";
    }
  }
  return out;
}

void expect_same_outcome(const EquivOutcome& a, const EquivOutcome& b) {
  EXPECT_EQ(a.stats.records_found, b.stats.records_found);
  EXPECT_EQ(a.stats.records_dropped_torn, b.stats.records_dropped_torn);
  EXPECT_EQ(a.stats.sectors_written_back, b.stats.sectors_written_back);
  EXPECT_EQ(a.log_images, b.log_images) << "log images diverged";
  EXPECT_EQ(a.data_images, b.data_images) << "data images diverged";
}

TEST(RecoveryEquivalence, PipelinedRebuildAndWritebackMatchSerial) {
  const EquivOutcome serial = run_equivalence_scenario(1, /*write_back=*/true);
  const EquivOutcome pipelined = run_equivalence_scenario(8, /*write_back=*/true);
  // The newest-content overlay writes each data sector once: the 24
  // writes cover 6 distinct 2-sector blocks.
  EXPECT_EQ(pipelined.stats.sectors_written_back, 12u);
  expect_same_outcome(serial, pipelined);
}

TEST(RecoveryEquivalence, PipelinedAdoptionMatchesSerial) {
  // Fig. 4b shape: skip phase 3 so the recovered records are adopted as
  // pending — the pending set itself must be depth-invariant.
  const EquivOutcome serial = run_equivalence_scenario(1, /*write_back=*/false);
  const EquivOutcome pipelined = run_equivalence_scenario(8, /*write_back=*/false);
  EXPECT_EQ(pipelined.stats.sectors_written_back, 0u);
  expect_same_outcome(serial, pipelined);
}

TEST(RecoveryEquivalence, TwoLogDisksMatchReferenceAtEveryDepth) {
  // Two log units run their locate machines concurrently at every depth,
  // and the chain crosses between disks.
  for (const bool write_back : {true, false}) {
    const EquivOutcome shallow = run_equivalence_scenario(1, write_back, 2);
    const EquivOutcome deep = run_equivalence_scenario(8, write_back, 2);
    expect_same_outcome(shallow, deep);
  }
}

}  // namespace
}  // namespace trail::testing
