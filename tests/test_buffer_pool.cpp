#include <gtest/gtest.h>

#include <memory>

#include "db/buffer_pool.hpp"
#include "db/page_file.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "sim/simulator.hpp"

namespace trail::db {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() {
    dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    dev_id = driver.add_device(*dev);
    pool = std::make_unique<BufferPool>(sim, 4);
    file = std::make_unique<PageFile>(driver, io::BlockAddr{dev_id, 0}, 64);
    fid = pool->register_file(*file);
  }

  /// Fetch a page, run `mutate` on it, wait for completion.
  void with_page(PageNo page, const std::function<void(std::span<std::byte>)>& mutate) {
    bool done = false;
    pool->fetch(fid, page, [&](std::span<std::byte> p) {
      mutate(p);
      done = true;
    });
    while (!done) ASSERT_TRUE(sim.step());
  }

  sim::Simulator sim;
  io::StandardDriver driver;
  std::unique_ptr<disk::DiskDevice> dev;
  io::DeviceId dev_id;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PageFile> file;
  std::uint32_t fid{};
};

TEST_F(BufferPoolTest, MissThenHit) {
  with_page(3, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, 1u);
  EXPECT_EQ(pool->stats().hits, 0u);
  with_page(3, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->resident_pages(), 1u);
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfLoadingPageCoalesce) {
  int called = 0;
  pool->fetch(fid, 7, [&](std::span<std::byte>) { ++called; });
  pool->fetch(fid, 7, [&](std::span<std::byte>) { ++called; });  // still loading
  sim.run();
  EXPECT_EQ(called, 2);
  EXPECT_EQ(pool->stats().misses, 1u) << "second fetch must piggyback on the load";
}

TEST_F(BufferPoolTest, LruEvictionAtCapacity) {
  for (PageNo p = 0; p < 6; ++p) with_page(p, [](std::span<std::byte>) {});
  EXPECT_LE(pool->resident_pages(), 4u);
  EXPECT_GE(pool->stats().evictions, 2u);
  // Page 0 (least recent) was evicted: refetching misses.
  const auto misses = pool->stats().misses;
  with_page(0, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, misses + 1);
}

TEST_F(BufferPoolTest, HitRefreshesRecency) {
  for (PageNo p = 0; p < 4; ++p) with_page(p, [](std::span<std::byte>) {});
  // A hit on the oldest page makes it the most recent, so the next miss
  // evicts the next-oldest page (1) instead.
  with_page(0, [](std::span<std::byte>) {});
  with_page(4, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().evictions, 1u);
  const auto misses = pool->stats().misses;
  with_page(0, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, misses) << "the refreshed page must still be resident";
  with_page(1, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, misses + 1) << "the next-oldest page must have gone";
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0xEE};
    pool->mark_dirty(fid, 1);
  });
  // Push it out of the pool.
  for (PageNo p = 10; p < 16; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  EXPECT_GE(pool->stats().dirty_writebacks, 1u);
  // The platter carries the change.
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);  // page 1 = sectors 8..15
  EXPECT_EQ(sector[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x77};
    pool->mark_dirty(fid, 1);
  });
  pool->pin(fid, 1);
  for (PageNo p = 10; p < 20; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  // Still resident with its content (NO-STEAL: uncommitted data never
  // reaches the disk).
  const auto hits = pool->stats().hits;
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0x77}); });
  EXPECT_EQ(pool->stats().hits, hits + 1);
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);
  EXPECT_NE(sector[0], std::byte{0x77}) << "pinned dirty page must not be flushed";
  pool->unpin(fid, 1);
  EXPECT_THROW(pool->unpin(fid, 1), std::logic_error);
}

TEST_F(BufferPoolTest, FlushDirtyWaitsForPinnedPages) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x11};
    pool->mark_dirty(fid, 1);
  });
  with_page(2, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x22};
    pool->mark_dirty(fid, 2);
  });
  pool->pin(fid, 2);
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  sim.run();
  EXPECT_FALSE(flushed) << "the flush must wait for the page pinned at its snapshot";
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);
  EXPECT_EQ(sector[0], std::byte{0x11});
  dev->store().read(16, 1, sector);
  EXPECT_NE(sector[0], std::byte{0x22}) << "NO-STEAL: a pinned page is not written";
  pool->unpin(fid, 2);
  while (!flushed) ASSERT_TRUE(sim.step());
  dev->store().read(16, 1, sector);
  EXPECT_EQ(sector[0], std::byte{0x22}) << "the page is written once unpinned";
  EXPECT_EQ(pool->dirty_pages(), 0u);
}

TEST_F(BufferPoolTest, ChangeDuringCheckpointWriteSurvives) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x11};
    pool->mark_dirty(fid, 1);
  });
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });  // page 1's write is now in flight
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x22};
    pool->mark_dirty(fid, 1);
  });
  while (!flushed) ASSERT_TRUE(sim.step());
  EXPECT_EQ(pool->dirty_pages(), 1u) << "the write carried the older image";
  for (PageNo p = 10; p < 16; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0x22}); });
}

TEST_F(BufferPoolTest, ChangeDuringEvictionWriteSurvives) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0xEE};
    pool->mark_dirty(fid, 1);
  });
  for (PageNo p = 10; p < 13; ++p) with_page(p, [](std::span<std::byte>) {});
  pool->fetch(fid, 13, [](std::span<std::byte>) {});  // evicts page 1
  ASSERT_EQ(pool->stats().dirty_writebacks, 1u);
  with_page(1, [&](std::span<std::byte> p) {  // a hit while the write is in flight
    p[0] = std::byte{0xAB};
    pool->mark_dirty(fid, 1);
  });
  sim.run();
  for (PageNo p = 20; p < 26; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0xAB}); });
}

TEST_F(BufferPoolTest, ResetDropsEverything) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x55};
    pool->mark_dirty(fid, 1);
  });
  // Dropping the dirty frame would lose its change, so reset refuses.
  EXPECT_THROW(pool->reset(), std::logic_error);
  EXPECT_EQ(pool->dirty_pages(), 1u);
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  while (!flushed) ASSERT_TRUE(sim.step());
  pool->reset();
  EXPECT_EQ(pool->resident_pages(), 0u);
  // The change comes back from disk.
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0x55}); });
}

}  // namespace
}  // namespace trail::db
