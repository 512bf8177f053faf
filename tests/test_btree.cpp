#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "db/btree.hpp"
#include "db/table.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace trail::db {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    dev_id = driver.add_device(*dev);
    pool = std::make_unique<BufferPool>(sim, 64);
    file = std::make_unique<PageFile>(driver, io::BlockAddr{dev_id, 0}, 4000);
    file_id = pool->register_file(*file);
    tree = std::make_unique<BTree>(*pool, file_id, *file, dev.get());
    tree->init_empty_offline();
  }

  void pump(const bool& flag) {
    while (!flag)
      if (!sim.step()) {
        ADD_FAILURE() << "stalled";
        return;
      }
  }

  bool insert_sync(Key k, BTree::Value v) {
    bool done = false, ok = false;
    tree->insert(k, v, [&](bool o) {
      ok = o;
      done = true;
    });
    pump(done);
    return ok;
  }

  std::pair<bool, BTree::Value> find_sync(Key k) {
    bool done = false, found = false;
    BTree::Value v = 0;
    tree->find(k, [&](bool f, BTree::Value val) {
      found = f;
      v = val;
      done = true;
    });
    pump(done);
    return {found, v};
  }

  std::vector<std::pair<Key, BTree::Value>> scan_sync(Key from, Key to,
                                                      std::size_t limit = ~0ull) {
    std::vector<std::pair<Key, BTree::Value>> out;
    bool done = false;
    tree->scan(
        from, to,
        [&out, limit](Key k, BTree::Value v) {
          out.emplace_back(k, v);
          return out.size() < limit;
        },
        [&] { done = true; });
    pump(done);
    return out;
  }

  sim::Simulator sim;
  io::StandardDriver driver;
  std::unique_ptr<disk::DiskDevice> dev;
  io::DeviceId dev_id;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PageFile> file;
  std::uint32_t file_id{};
  std::unique_ptr<BTree> tree;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_FALSE(find_sync(42).first);
  EXPECT_TRUE(scan_sync(0, ~0ull).empty());
}

TEST_F(BTreeTest, InsertFindUpdate) {
  EXPECT_TRUE(insert_sync(10, 100));
  EXPECT_TRUE(insert_sync(5, 50));
  EXPECT_TRUE(insert_sync(20, 200));
  EXPECT_EQ(tree->size(), 3u);
  EXPECT_EQ(find_sync(10), (std::pair<bool, BTree::Value>{true, 100}));
  EXPECT_EQ(find_sync(5).second, 50u);
  EXPECT_FALSE(find_sync(15).first);
  // Upsert does not grow the tree.
  EXPECT_TRUE(insert_sync(10, 111));
  EXPECT_EQ(tree->size(), 3u);
  EXPECT_EQ(find_sync(10).second, 111u);
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  // Fill past several leaf capacities with ascending keys.
  const std::size_t n = BTree::kLeafCapacity * 5;
  for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(insert_sync(i * 2, i));
  EXPECT_EQ(tree->size(), n);
  EXPECT_GE(tree->height(), 2u);
  for (std::size_t i = 0; i < n; i += 37) {
    const auto [found, v] = find_sync(i * 2);
    EXPECT_TRUE(found) << i;
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(find_sync(1).first);  // odd keys absent
}

TEST_F(BTreeTest, RandomInsertMatchesReferenceMap) {
  sim::Rng rng(20020625);
  std::map<Key, BTree::Value> reference;
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.uniform(0, 10'000));
    const BTree::Value v = rng.next();
    reference[k] = v;
    ASSERT_TRUE(insert_sync(k, v));
  }
  EXPECT_EQ(tree->size(), reference.size());
  // Point queries.
  for (int i = 0; i < 500; ++i) {
    const Key k = static_cast<Key>(rng.uniform(0, 10'000));
    const auto it = reference.find(k);
    const auto [found, v] = find_sync(k);
    EXPECT_EQ(found, it != reference.end()) << k;
    if (found) {
      EXPECT_EQ(v, it->second) << k;
    }
  }
  // Full scan in order.
  const auto scanned = scan_sync(0, ~0ull);
  ASSERT_EQ(scanned.size(), reference.size());
  auto rit = reference.begin();
  for (const auto& [k, v] : scanned) {
    EXPECT_EQ(k, rit->first);
    EXPECT_EQ(v, rit->second);
    ++rit;
  }
}

TEST_F(BTreeTest, RangeScanRespectsBoundsAndEarlyStop) {
  for (Key k = 0; k < 1000; ++k) ASSERT_TRUE(insert_sync(k * 10, k));
  const auto mid = scan_sync(995, 2005);
  ASSERT_FALSE(mid.empty());
  EXPECT_EQ(mid.front().first, 1000u);
  EXPECT_EQ(mid.back().first, 2000u);
  EXPECT_EQ(mid.size(), 101u);
  const auto limited = scan_sync(0, ~0ull, 7);
  EXPECT_EQ(limited.size(), 7u);
}

TEST_F(BTreeTest, EraseRemovesAndReusesSpace) {
  for (Key k = 0; k < 100; ++k) ASSERT_TRUE(insert_sync(k, k));
  bool done = false, existed = false;
  tree->erase(50, [&](bool e) {
    existed = e;
    done = true;
  });
  pump(done);
  EXPECT_TRUE(existed);
  EXPECT_EQ(tree->size(), 99u);
  EXPECT_FALSE(find_sync(50).first);
  done = false;
  tree->erase(50, [&](bool e) {
    existed = e;
    done = true;
  });
  pump(done);
  EXPECT_FALSE(existed);
  EXPECT_TRUE(insert_sync(50, 555));
  EXPECT_EQ(find_sync(50).second, 555u);
}

TEST_F(BTreeTest, BulkLoadRefusesToDropADirtyTableFrame) {
  // A table shares the pool and has an unflushed change: the bulk load's
  // pool reset would discard it, so the bulk load throws instead.
  PageFile table_file(driver, io::BlockAddr{dev_id, 40'000}, 8);
  Table table("t", 0, 64, *pool, pool->register_file(table_file), 8, dev.get(), &table_file);
  bool applied = false;
  const RowBuf row(64, std::byte{7});  // must outlive the apply
  table.apply_image(1, row, [&] { applied = true; });
  pump(applied);
  EXPECT_THROW(tree->bulk_load_offline({{1, 1}}), std::logic_error);
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  pump(flushed);
  tree->bulk_load_offline({{1, 1}});
  EXPECT_EQ(find_sync(1), std::make_pair(true, BTree::Value{1}));
}

TEST_F(BTreeTest, BulkLoadBuildsSearchableTree) {
  std::vector<std::pair<Key, BTree::Value>> data;
  for (Key k = 0; k < 50'000; ++k) data.emplace_back(k * 7, k);
  tree->bulk_load_offline(data);
  EXPECT_EQ(tree->size(), data.size());
  EXPECT_GE(tree->height(), 2u);
  for (Key k = 0; k < 50'000; k += 997) {
    const auto [found, v] = find_sync(k * 7);
    EXPECT_TRUE(found) << k;
    EXPECT_EQ(v, k);
  }
  EXPECT_FALSE(find_sync(3).first);
  // Scans cross bulk-built leaf boundaries.
  const auto part = scan_sync(7 * 100, 7 * 200);
  EXPECT_EQ(part.size(), 101u);
  // Inserts continue to work after a bulk load.
  ASSERT_TRUE(insert_sync(1, 42));
  EXPECT_EQ(find_sync(1).second, 42u);
}

TEST_F(BTreeTest, BulkLoadRejectsUnsortedInput) {
  EXPECT_THROW(tree->bulk_load_offline({{5, 1}, {5, 2}}), std::invalid_argument);
  EXPECT_THROW(tree->bulk_load_offline({{9, 1}, {2, 2}}), std::invalid_argument);
}

}  // namespace
}  // namespace trail::db
