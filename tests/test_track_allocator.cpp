#include <gtest/gtest.h>

#include "core/track_allocator.hpp"
#include "disk/profile.hpp"

namespace trail::core {
namespace {

class TrackAllocatorTest : public ::testing::Test {
 protected:
  disk::DiskProfile profile = disk::small_test_disk();  // 80 tracks
  std::vector<disk::TrackId> reserved{0, 40, 79};
  TrackAllocator alloc{profile.geometry, reserved};
};

TEST_F(TrackAllocatorTest, StartsAtFirstUsableTrack) {
  EXPECT_EQ(alloc.current(), 1u);
  EXPECT_EQ(alloc.usable_track_count(), 77u);
  EXPECT_TRUE(alloc.is_reserved(0));
  EXPECT_TRUE(alloc.is_reserved(40));
  EXPECT_FALSE(alloc.is_reserved(1));
}

TEST_F(TrackAllocatorTest, FreeRunAndOccupy) {
  const std::uint32_t spt = alloc.current_spt();
  auto run = alloc.free_run_from(0);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 0u);
  EXPECT_EQ(run->length, spt);

  alloc.occupy(3, 4, 1);
  EXPECT_NEAR(alloc.current_utilization(), 4.0 / spt, 1e-9);

  run = alloc.free_run_from(0);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 0u);
  EXPECT_EQ(run->length, 3u);

  run = alloc.free_run_from(3);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 7u);
  EXPECT_EQ(run->length, spt - 7);

  run = alloc.free_run_from(spt - 1);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, spt - 1);
  EXPECT_EQ(run->length, 1u);
}

TEST_F(TrackAllocatorTest, FreeRunNoneWhenFullFromPosition) {
  const std::uint32_t spt = alloc.current_spt();
  alloc.occupy(spt - 2, 2, 1);
  EXPECT_FALSE(alloc.free_run_from(spt - 2).has_value());
  EXPECT_TRUE(alloc.free_run_from(0).has_value());
}

TEST_F(TrackAllocatorTest, DoubleOccupyThrows) {
  alloc.occupy(0, 2, 1);
  EXPECT_THROW(alloc.occupy(1, 1, 1), std::logic_error);
  EXPECT_THROW(alloc.occupy(alloc.current_spt(), 1, 1), std::out_of_range);
}

TEST_F(TrackAllocatorTest, AdvanceSkipsReservedTracks) {
  // Starting at 1, advancing should hit 2..39, skip 40, hit 41...
  for (disk::TrackId expect = 2; expect < 40; ++expect) {
    auto next = alloc.advance();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, expect);
  }
  auto next = alloc.advance();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 41u);  // skipped reserved 40
}

TEST_F(TrackAllocatorTest, WrapsAroundRing) {
  // Advance through all usable tracks; the ring should wrap to track 1.
  // (No live records anywhere, so every advance succeeds.)
  for (std::size_t i = 0; i < alloc.usable_track_count() - 1; ++i)
    ASSERT_TRUE(alloc.advance().has_value());
  auto wrapped = alloc.advance();
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(*wrapped, 1u);
}

TEST_F(TrackAllocatorTest, LogFullWhenNextTrackLive) {
  alloc.occupy(0, 2, 1);  // one live record on track 1
  // March the tail all the way around; the final advance back onto track 1
  // must fail because its record is still live.
  for (std::size_t i = 0; i < alloc.usable_track_count() - 1; ++i)
    ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_FALSE(alloc.advance().has_value()) << "ring must be exhausted";
  // Release the record: the ring opens up again.
  alloc.release_record(1);
  EXPECT_TRUE(alloc.advance().has_value());
}

TEST_F(TrackAllocatorTest, ReleaseFreesTrackOnlyWhenAllRecordsGone) {
  alloc.occupy(0, 4, 2);  // two records on track 1
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.live_track_count(), 2u);  // track 1 + new tail
  alloc.release_record(1);
  EXPECT_EQ(alloc.live_track_count(), 2u);  // still one live record
  alloc.release_record(1);
  EXPECT_EQ(alloc.live_track_count(), 1u);  // freed
  EXPECT_THROW(alloc.release_record(1), std::logic_error);
}

TEST_F(TrackAllocatorTest, CurrentTrackNotFreedWhileTail) {
  alloc.occupy(0, 2, 1);
  alloc.release_record(1);  // record done, but track 1 is the tail
  EXPECT_EQ(alloc.live_track_count(), 1u);
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.live_track_count(), 1u);  // old tail dropped on advance
}

TEST_F(TrackAllocatorTest, UtilizationStatistics) {
  const std::uint32_t spt = alloc.current_spt();
  alloc.occupy(0, spt / 2, 1);
  alloc.release_record(1);
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.finished_track_count(), 1u);
  EXPECT_NEAR(alloc.mean_finished_track_utilization(), 0.5, 0.05);
  // An untouched track does not count as finished.
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.finished_track_count(), 1u);
  EXPECT_EQ(alloc.total_track_advances(), 2u);
}

TEST_F(TrackAllocatorTest, AdoptLiveTrackAndResume) {
  // Two records on track 10 and one on track 11, each at its exact
  // sectors (header + payload).
  alloc.adopt_record(10, 2, 3);
  alloc.adopt_record(10, 7, 2);
  alloc.adopt_record(11, 4, 2);
  EXPECT_EQ(alloc.live_track_count(), 3u);  // 10, 11 + initial tail (track 1)
  EXPECT_EQ(alloc.live_records_on(10), 2u);
  EXPECT_THROW(alloc.adopt_record(10, 3, 1), std::logic_error);  // overlaps a record
  EXPECT_TRUE(alloc.set_tail_after(11));
  EXPECT_EQ(alloc.current(), 12u);
  // Ring is blocked at track 10/11 until those records release.
  alloc.release_record(10);
  alloc.release_record(10);
  alloc.release_record(11);
  EXPECT_EQ(alloc.live_track_count(), 1u);
  EXPECT_THROW(alloc.adopt_record(0, 1, 1), std::invalid_argument);  // reserved
  EXPECT_THROW(alloc.adopt_record(20, 0, alloc.current_spt() + 1), std::out_of_range);
  EXPECT_EQ(alloc.live_track_count(), 1u);
}

TEST_F(TrackAllocatorTest, SetTailAfterStaysPutOnAFullRing) {
  // Adopted records pin every usable track: the track after 5 is live.
  for (disk::TrackId t = 1; t < 79; ++t)
    if (!alloc.is_reserved(t)) alloc.adopt_record(t, 0, 2);
  EXPECT_FALSE(alloc.set_tail_after(5));
  EXPECT_EQ(alloc.current(), 5u);
  EXPECT_EQ(alloc.live_records_on(5), 1u);  // the tail kept its adopted record
  EXPECT_FALSE(alloc.advance().has_value());
  alloc.release_record(6);
  EXPECT_EQ(alloc.advance(), std::optional<disk::TrackId>(6));
}

TEST_F(TrackAllocatorTest, SetTailAfterSkipsReserved) {
  alloc.set_tail_after(39);  // next physical is 40 (reserved)
  EXPECT_EQ(alloc.current(), 41u);
  alloc.set_tail_after(78);  // 79 reserved, wraps past 0 (reserved)
  EXPECT_EQ(alloc.current(), 1u);
}

TEST(TrackAllocator, RequiresUsableTracks) {
  const disk::DiskProfile p = disk::small_test_disk();
  std::vector<disk::TrackId> all;
  for (disk::TrackId t = 0; t < p.geometry.track_count(); ++t) all.push_back(t);
  EXPECT_THROW((TrackAllocator{p.geometry, all}), std::invalid_argument);
}

}  // namespace
}  // namespace trail::core
