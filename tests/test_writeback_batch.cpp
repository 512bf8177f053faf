// Batched, CSCAN-ordered write-back dispatch (§4.2–§4.3): in-queue
// coalescing of adjacent/overlapping dirty ranges into single device
// commands, per-constituent skip semantics (settled sub-ranges drop out
// of a merged command; duplicates are absorbed by overlapping survivors),
// and the pin/settlement accounting that must balance through it all.
//
// The data disk is deliberately slow (large command overhead) so queued
// write-backs pile up behind the first dispatch and the coalescer has
// something to merge.
#include <gtest/gtest.h>

#include <cstring>

#include "audit/check.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::TrailConfig;
using disk::kSectorSize;

class WritebackBatchTest : public TrailFixture {
 protected:
  WritebackBatchTest() : TrailFixture(1, disk::small_test_disk(), slow_data_profile()) {}

  static disk::DiskProfile slow_data_profile() {
    disk::DiskProfile p = disk::small_test_disk();
    p.command_overhead = sim::millis_f(50.0);  // write-backs queue up behind it
    return p;
  }

  void expect_clean_audit() {
    audit::Report report;
    driver->run_audit(report, /*quiescent=*/true);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

TEST_F(WritebackBatchTest, AdjacentWritebacksCoalesceIntoFewerCommands) {
  start();
  // Eight adjacent single-sector writes: the first write-back dispatches
  // alone (device idle), the other seven merge into one queued batch.
  for (std::uint32_t i = 0; i < 8; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 1000 + i));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 8u);
  EXPECT_EQ(s.writebacks_dispatched, 8u);
  EXPECT_EQ(s.writebacks_skipped, 0u);
  EXPECT_EQ(s.writeback_sectors, 8u);
  EXPECT_EQ(s.writeback_commands, 2u);  // solo first + the coalesced seven
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, MergedBatchAbsorbsOverlappingDuplicate) {
  start();
  const io::BlockAddr addr{devices[0], 100};
  // A dispatches alone; B and C (same range) merge in the queue. At the
  // batch's dispatch B survives and materializes the *latest* content —
  // C's bytes — so C is absorbed and skipped, yet both records settle.
  write_sync(addr, make_pattern(2, 1));
  write_sync(addr, make_pattern(2, 2));
  write_sync(addr, make_pattern(2, 3));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 3u);
  EXPECT_EQ(s.writebacks_dispatched, 2u);
  EXPECT_EQ(s.writebacks_skipped, 1u);
  EXPECT_EQ(s.writeback_commands, 2u);
  verify_expected_on_data_disks();  // platter holds C's pattern
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, SettledSubRangeDropsOutOfMergedDispatch) {
  // The ISSUE scenario: a sub-range of a coalesced dispatch is settled by
  // a newer overlapping write *before* dispatch. A merge cap of 2 forces
  // the overlapping newer range into a second batch; the first batch's
  // dispatch-time snapshot carries the newer version, so by the time the
  // second batch reaches the device its overlapping sub-range is settled
  // and drops out, while its other sub-range is written exactly once.
  TrailConfig cfg;
  cfg.max_writeback_ranges = 2;
  start(cfg);

  // U occupies the device so everything below queues behind it (the small
  // test disk has 1,520 sectors; 1400 is far from the burst at 100).
  write_sync(io::BlockAddr{devices[0], 1400}, make_pattern(1, 9));
  // Batch α = {A1 [100,102), A2 [102,104)} — full at the cap.
  write_sync(io::BlockAddr{devices[0], 100}, make_pattern(2, 10));
  write_sync(io::BlockAddr{devices[0], 102}, make_pattern(2, 11));
  // A3 overlaps A2 but cannot join α (cap) — starts batch γ; A4 extends γ.
  write_sync(io::BlockAddr{devices[0], 102}, make_pattern(2, 12));
  write_sync(io::BlockAddr{devices[0], 104}, make_pattern(2, 13));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 5u);
  // α's A2 survivor snapshots A3's newer content at dispatch, settling A3
  // before γ reaches the device: γ dispatches A4 alone.
  EXPECT_EQ(s.writebacks_skipped, 1u);
  EXPECT_EQ(s.writebacks_dispatched, 4u);
  EXPECT_EQ(s.writeback_commands, 3u);  // U, α, γ-minus-the-settled-range
  // A2's sectors were written once, already carrying A3's bytes.
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, CoalescingDisabledDispatchesPerRange) {
  TrailConfig cfg;
  cfg.max_writeback_ranges = 1;  // pre-batching behaviour
  start(cfg);
  for (std::uint32_t i = 0; i < 8; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 2000 + i));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 8u);
  EXPECT_EQ(s.writebacks_dispatched + s.writebacks_skipped, 8u);
  // No coalescing: every dispatched range is its own device command.
  EXPECT_EQ(s.writeback_commands, s.writebacks_dispatched);
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, ReadsPreemptQueuedWritebackBatches) {
  start();
  // Fill the write-back queue behind a slow in-flight command, then issue
  // a read to an unbuffered LBA: it must dispatch before the coalesced
  // write batch (§4.3 read-over-write priority).
  for (std::uint32_t i = 0; i < 4; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 3000 + i));
  const auto before = driver->stats().reads;
  (void)read_sync(io::BlockAddr{devices[0], 1200}, 1);
  const auto& s = driver->stats();
  EXPECT_EQ(s.reads, before + 1);
  // The read completed while coalesced write-backs were still queued.
  EXPECT_GT(s.writebacks, s.writebacks_dispatched + s.writebacks_skipped);
  settle();
  verify_expected_on_data_disks();
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, DrainAndUnmountCompleteWhileAWritebackIsHeld) {
  start();
  // After a read completes, queued write-backs wait one data-disk command
  // overhead (50 ms here) for the next read. Draining or unmounting inside
  // that window must wait the hold out, not stall on it.
  auto write_then_read = [&](std::uint64_t seed) {
    for (std::uint32_t i = 0; i < 4; ++i)
      write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, seed + i));
    const auto commands = driver->stats().writeback_commands;
    (void)read_sync(io::BlockAddr{devices[0], 1200}, 1);
    const auto& s = driver->stats();
    EXPECT_GT(s.writebacks, s.writebacks_dispatched + s.writebacks_skipped);
    EXPECT_EQ(s.writeback_commands, commands) << "the queued write-backs are held";
  };
  write_then_read(4000);
  settle();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  verify_expected_on_data_disks();
  expect_clean_audit();

  write_then_read(5000);
  driver->unmount();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  verify_expected_on_data_disks();
}

TEST_F(WritebackBatchTest, RejectsZeroMergeCap) {
  TrailConfig cfg;
  cfg.max_writeback_ranges = 0;
  EXPECT_THROW(core::TrailDriver(sim, *log_disk, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace trail::testing
