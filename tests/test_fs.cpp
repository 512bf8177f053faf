#include <gtest/gtest.h>

#include <memory>

#include "db/database.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "fs/filesystem.hpp"
#include "io/standard_driver.hpp"
#include "sim/simulator.hpp"

namespace trail::fs {
namespace {

class FilesystemTest : public ::testing::Test {
 protected:
  FilesystemTest() {
    dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    dev_id = driver.add_device(*dev);
    mkfs(*dev, MkfsParams{0, 100'000});
    filesystem = std::make_unique<Filesystem>(driver, dev_id, *dev);
    filesystem->mount();
  }

  void pump(const bool& flag) {
    while (!flag)
      if (!sim.step()) {
        ADD_FAILURE() << "stalled";
        return;
      }
  }

  sim::Simulator sim;
  io::StandardDriver driver;
  std::unique_ptr<disk::DiskDevice> dev;
  io::DeviceId dev_id;
  std::unique_ptr<Filesystem> filesystem;
};

TEST_F(FilesystemTest, MkfsAndMountEmpty) {
  EXPECT_TRUE(filesystem->files().empty());
  EXPECT_GT(filesystem->free_sectors(), 99'000u);
}

TEST_F(FilesystemTest, MountUnformattedThrows) {
  disk::DiskDevice raw(sim, disk::small_test_disk());
  Filesystem bad(driver, dev_id, raw);
  EXPECT_THROW(bad.mount(), std::runtime_error);
}

TEST_F(FilesystemTest, CreateOpenAndAllocateContiguously) {
  bool done = false;
  FileInfo a;
  filesystem->create("alpha", 1000, [&](const FileInfo& f) {
    a = f;
    done = true;
  });
  pump(done);
  EXPECT_EQ(a.capacity, 1000u);
  EXPECT_EQ(a.size, 0u);

  const FileInfo b = filesystem->create_offline("beta", 500);
  EXPECT_EQ(b.base, a.base + a.capacity) << "contiguous first-fit";

  const auto reopened = filesystem->open("alpha");
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->base, a.base);
  EXPECT_FALSE(filesystem->open("gamma").has_value());
}

TEST_F(FilesystemTest, MetadataSurvivesRemount) {
  (void)filesystem->create_offline("tables", 2048);
  bool done = false;
  filesystem->create("wal.log", 4096, [&](const FileInfo&) { done = true; });
  pump(done);
  done = false;
  filesystem->record_append("wal.log", 77, [&] { done = true; });
  pump(done);

  Filesystem reopened(driver, dev_id, *dev);
  reopened.mount();
  const auto wal = reopened.open("wal.log");
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->size, 77u);
  EXPECT_EQ(wal->capacity, 4096u);
  ASSERT_TRUE(reopened.open("tables").has_value());
  // Allocation continues after the highest existing extent.
  const FileInfo next = reopened.create_offline("more", 10);
  EXPECT_GE(next.base, wal->base + wal->capacity);
}

TEST_F(FilesystemTest, AppendBookkeeping) {
  (void)filesystem->create_offline("f", 100);
  bool done = false;
  filesystem->record_append("f", 10, [&] { done = true; });
  pump(done);
  EXPECT_EQ(filesystem->open("f")->size, 10u);
  // An overwrite below the high-water mark needs no metadata I/O.
  const auto writes_before = dev->stats().writes;
  done = false;
  filesystem->record_append("f", 5, [&] { done = true; });
  pump(done);
  EXPECT_EQ(dev->stats().writes, writes_before);
  EXPECT_EQ(filesystem->open("f")->size, 10u);
  EXPECT_THROW(filesystem->record_append("f", 1000, {}), std::runtime_error);
  EXPECT_THROW(filesystem->record_append("nope", 1, {}), std::invalid_argument);
}

TEST_F(FilesystemTest, CreationErrors) {
  (void)filesystem->create_offline("dup", 10);
  EXPECT_THROW(filesystem->create_offline("dup", 10), std::invalid_argument);
  EXPECT_THROW(filesystem->create_offline("", 10), std::invalid_argument);
  EXPECT_THROW(filesystem->create_offline("way-too-long-file-name-x", 10),
               std::invalid_argument);
  EXPECT_THROW(filesystem->create_offline("huge", 1u << 30), std::runtime_error);
}

TEST_F(FilesystemTest, DatabaseOnFilesystemRoundTrip) {
  db::DbConfig cfg;
  cfg.buffer_pool_pages = 32;
  cfg.log_region_sectors = 4096;
  cfg.checkpoint_every_bytes = 0;
  auto database = std::make_unique<db::Database>(sim, driver, dev_id, cfg);
  database->attach_device(dev_id, *dev);
  database->attach_filesystem(dev_id, *filesystem);
  const auto items = database->create_table("items", 64, 500, dev_id);

  // The WAL and table landed in files.
  EXPECT_TRUE(filesystem->open("wal.log").has_value());
  EXPECT_TRUE(filesystem->open("db.meta").has_value());
  EXPECT_TRUE(filesystem->open("tbl.items").has_value());

  auto put = [&](db::Key key) {
    db::Txn& txn = database->begin();
    bool done = false;
    txn.update(items, key, db::RowBuf(64, std::byte{9}), [&](bool ok) {
      ASSERT_TRUE(ok);
      done = true;
    });
    pump(done);
    done = false;
    database->commit(txn, [&](bool ok) {
      ASSERT_TRUE(ok);
      done = true;
    });
    pump(done);
  };
  const auto writes_before = dev->stats().writes;
  for (db::Key k = 0; k < 6; ++k) put(k);
  // Each commit = log data write(s) + an inode write (the file grows).
  EXPECT_GE(dev->stats().writes - writes_before, 12u)
      << "O_SYNC appends must write data AND metadata";
  EXPECT_GT(filesystem->open("wal.log")->size, 0u);

  // Host crash: reopen everything from the filesystem by name.
  database.reset();
  Filesystem fs2(driver, dev_id, *dev);
  fs2.mount();
  database = std::make_unique<db::Database>(sim, driver, dev_id, cfg);
  database->attach_device(dev_id, *dev);
  database->attach_filesystem(dev_id, fs2);
  const auto items2 = database->create_table("items", 64, 500, dev_id);
  const auto report = database->recover();
  EXPECT_EQ(report.txns_replayed, 6u);
  for (db::Key k = 0; k < 6; ++k) {
    db::Txn& txn = database->begin();
    bool done = false, found = false;
    txn.get(items2, k, [&](bool f, db::RowView) {
      found = f;
      done = true;
    });
    pump(done);
    EXPECT_TRUE(found) << k;
    done = false;
    database->commit(txn, [&](bool) { done = true; });
    pump(done);
  }
}

}  // namespace
}  // namespace trail::fs
