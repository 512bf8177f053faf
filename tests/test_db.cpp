#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "audit/check.hpp"
#include "db/chain.hpp"
#include "db/database.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "sim/random.hpp"

namespace trail::db {
namespace {

RowBuf row_of(std::uint32_t size, std::uint64_t seed) {
  RowBuf row(size);
  sim::Rng rng(seed);
  for (auto& b : row) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  return row;
}

class DbTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRow = 64;

  DbTest() {
    log_dev = std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk());
    data_dev = std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk());
    log_id = driver.add_device(*log_dev);
    data_id = driver.add_device(*data_dev);
  }

  void open(DbConfig cfg = make_config()) {
    db = std::make_unique<Database>(sim, driver, log_id, cfg);
    db->attach_device(log_id, *log_dev);
    db->attach_device(data_id, *data_dev);
    items = db->create_table("items", kRow, 500, data_id);
  }

  static DbConfig make_config() {
    DbConfig cfg;
    cfg.buffer_pool_pages = 8;
    cfg.log_region_sectors = 512;  // the small disk only has ~760 sectors
    cfg.checkpoint_every_bytes = 0;
    return cfg;
  }

  void pump(const bool& flag) {
    while (!flag) {
      if (!sim.step()) {
        ADD_FAILURE() << "simulation stalled";
        return;
      }
    }
  }

  bool commit_sync(Txn& txn) {
    bool done = false, ok = false;
    db->commit(txn, [&](bool committed) {
      ok = committed;
      done = true;
    });
    pump(done);
    return ok;
  }

  void abort_sync(Txn& txn) {
    bool done = false;
    db->abort(txn, [&] { done = true; });
    pump(done);
  }

  bool put_sync(Txn& txn, Key key, const RowBuf& row) {
    bool done = false, ok = false;
    txn.update(items, key, row, [&](bool granted) {
      ok = granted;
      done = true;
    });
    pump(done);
    return ok;
  }

  std::pair<bool, RowBuf> get_sync(Key key) {
    Txn& txn = db->begin();
    bool done = false, found = false;
    RowBuf out;
    txn.get(items, key, [&](bool f, RowView row) {
      found = f;
      out.assign(row.begin(), row.end());
      done = true;
    });
    pump(done);
    commit_sync(txn);
    return {found, std::move(out)};
  }

  sim::Simulator sim;
  io::StandardDriver driver;
  std::unique_ptr<disk::DiskDevice> log_dev;
  std::unique_ptr<disk::DiskDevice> data_dev;
  io::DeviceId log_id, data_id;
  std::unique_ptr<Database> db;
  TableId items{};
};

TEST_F(DbTest, InsertCommitRead) {
  open();
  const RowBuf row = row_of(kRow, 1);
  Txn& txn = db->begin();
  ASSERT_TRUE(put_sync(txn, 42, row));
  ASSERT_TRUE(commit_sync(txn));
  const auto [found, got] = get_sync(42);
  EXPECT_TRUE(found);
  EXPECT_EQ(got, row);
  EXPECT_EQ(db->stats().commits, 2u);  // the read txn too
}

TEST_F(DbTest, MissingKeyNotFound) {
  open();
  const auto [found, got] = get_sync(7);
  EXPECT_FALSE(found);
  EXPECT_TRUE(got.empty());
}

TEST_F(DbTest, AbortRestoresOldValue) {
  open();
  const RowBuf v1 = row_of(kRow, 1), v2 = row_of(kRow, 2);
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 5, v1));
  ASSERT_TRUE(commit_sync(t1));

  Txn& t2 = db->begin();
  ASSERT_TRUE(put_sync(t2, 5, v2));
  abort_sync(t2);

  const auto [found, got] = get_sync(5);
  EXPECT_TRUE(found);
  EXPECT_EQ(got, v1);
  EXPECT_EQ(db->stats().aborts, 1u);
}

TEST_F(DbTest, AbortRestoresEveryRowsFirstImage) {
  open();
  const RowBuf v2 = row_of(kRow, 2), v3 = row_of(kRow, 3);
  Txn& t1 = db->begin();
  for (const Key key : {5, 6, 7}) ASSERT_TRUE(put_sync(t1, key, row_of(kRow, 10 + key)));
  ASSERT_TRUE(commit_sync(t1));

  // A later transaction touches three rows, one of them twice, and a
  // fresh one, then aborts: each row gets its image from before its
  // first touch.
  Txn& t2 = db->begin();
  ASSERT_TRUE(put_sync(t2, 6, v2));
  ASSERT_TRUE(put_sync(t2, 5, v2));
  ASSERT_TRUE(put_sync(t2, 6, v3));
  ASSERT_TRUE(put_sync(t2, 8, v3));
  ASSERT_TRUE(put_sync(t2, 7, v3));
  abort_sync(t2);

  for (const Key key : {5, 6, 7})
    EXPECT_EQ(get_sync(key).second, row_of(kRow, 10 + key)) << "row " << key;
  EXPECT_FALSE(get_sync(8).first);
}

TEST_F(DbTest, AbortOfInsertRemovesRow) {
  open();
  Txn& txn = db->begin();
  ASSERT_TRUE(put_sync(txn, 9, row_of(kRow, 9)));
  abort_sync(txn);
  EXPECT_FALSE(get_sync(9).first);
}

TEST_F(DbTest, RemoveCommitsAndAbortRestores) {
  open();
  const RowBuf v = row_of(kRow, 3);
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 11, v));
  ASSERT_TRUE(commit_sync(t1));

  // Abort a remove: the row comes back.
  Txn& t2 = db->begin();
  bool done = false, ok = false;
  t2.remove(items, 11, [&](bool granted) {
    ok = granted;
    done = true;
  });
  pump(done);
  ASSERT_TRUE(ok);
  abort_sync(t2);
  EXPECT_TRUE(get_sync(11).first);

  // Commit a remove: the row is gone.
  Txn& t3 = db->begin();
  done = false;
  t3.remove(items, 11, [&](bool) { done = true; });
  pump(done);
  ASSERT_TRUE(commit_sync(t3));
  EXPECT_FALSE(get_sync(11).first);
}

TEST_F(DbTest, LockConflictBlocksSecondWriter) {
  open();
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 3, row_of(kRow, 1)));

  Txn& t2 = db->begin();
  bool granted = false, responded = false;
  t2.update(items, 3, row_of(kRow, 2), [&](bool ok) {
    granted = ok;
    responded = true;
  });
  sim.run_until(sim.now() + sim::millis(10));
  EXPECT_FALSE(responded) << "t2 must wait for t1's lock";
  ASSERT_TRUE(commit_sync(t1));
  pump(responded);
  EXPECT_TRUE(granted);
  ASSERT_TRUE(commit_sync(t2));
  EXPECT_EQ(get_sync(3).second, row_of(kRow, 2));
}

TEST(LockManagerTest, QueuedWritersAreGrantedInFifoOrder) {
  sim::Simulator sim;
  LockManager locks(sim, sim::millis(500));
  std::vector<TxnId> granted;
  for (const TxnId txn : {1, 2, 3, 4})
    locks.lock(txn, 0, 7, [&granted, txn](bool ok) {
      EXPECT_TRUE(ok);
      granted.push_back(txn);
    });
  EXPECT_EQ(granted, std::vector<TxnId>{1});
  EXPECT_EQ(locks.stats().waits, 3u);
  for (const TxnId txn : {1, 2, 3}) {
    locks.release_all(txn);
    EXPECT_EQ(granted.back(), txn + 1) << "release by " << txn;
  }
  EXPECT_EQ(granted, (std::vector<TxnId>{1, 2, 3, 4}));
  locks.release_all(4);
  EXPECT_EQ(locks.held_locks(), 0u);
  sim.run();  // every grant cancelled its waiter's timeout
  EXPECT_EQ(locks.stats().timeouts, 0u);
}

TEST(LockManagerTest, ReleaseAllGrantsEachContendedRowsFirstWaiter) {
  sim::Simulator sim;
  LockManager locks(sim, sim::millis(500));
  std::vector<TxnId> granted;
  const auto lock = [&](TxnId txn, Key key) {
    locks.lock(txn, 0, key, [&granted, txn](bool ok) {
      EXPECT_TRUE(ok);
      granted.push_back(txn);
    });
  };
  lock(1, 10);
  lock(1, 20);
  lock(2, 10);  // first waiter on row 10
  lock(3, 20);  // first waiter on row 20
  lock(4, 10);
  lock(5, 20);
  EXPECT_EQ(granted, (std::vector<TxnId>{1, 1}));
  locks.release_all(1);
  ASSERT_EQ(granted.size(), 4u);
  std::vector<TxnId> first(granted.begin() + 2, granted.end());
  std::ranges::sort(first);
  EXPECT_EQ(first, (std::vector<TxnId>{2, 3}));
  locks.release_all(2);
  locks.release_all(3);
  EXPECT_EQ(std::vector<TxnId>(granted.begin() + 4, granted.end()), (std::vector<TxnId>{4, 5}));
  locks.release_all(4);
  locks.release_all(5);
  EXPECT_EQ(locks.held_locks(), 0u);
  sim.run();
  EXPECT_EQ(locks.stats().timeouts, 0u);
}

TEST_F(DbTest, LockTimeoutAborts) {
  DbConfig cfg = make_config();
  cfg.lock_timeout = sim::millis(20);
  open(cfg);
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 3, row_of(kRow, 1)));
  Txn& t2 = db->begin();
  bool granted = true, responded = false;
  t2.update(items, 3, row_of(kRow, 2), [&](bool ok) {
    granted = ok;
    responded = true;
  });
  pump(responded);
  EXPECT_FALSE(granted);
  EXPECT_EQ(db->locks().stats().timeouts, 1u);
  abort_sync(t2);
  ASSERT_TRUE(commit_sync(t1));
}

TEST_F(DbTest, GroupCommitDefersFlushes) {
  DbConfig cfg = make_config();
  cfg.group_commit = true;
  cfg.log_buffer_bytes = 4096;
  open(cfg);
  // Small commits shouldn't flush until the buffer threshold.
  for (int i = 0; i < 5; ++i) {
    Txn& txn = db->begin();
    ASSERT_TRUE(put_sync(txn, static_cast<Key>(i), row_of(kRow, i)));
    ASSERT_TRUE(commit_sync(txn));
  }
  EXPECT_EQ(db->wal().stats().flushes, 0u) << "buffer below threshold: no sync writes";
  // Push past the threshold.
  int flushed_after = 0;
  while (db->wal().stats().flushes == 0 && flushed_after < 200) {
    Txn& txn = db->begin();
    ASSERT_TRUE(put_sync(txn, static_cast<Key>(100 + flushed_after), row_of(kRow, 1)));
    ASSERT_TRUE(commit_sync(txn));
    ++flushed_after;
  }
  EXPECT_GE(db->wal().stats().flushes, 1u);
}

TEST_F(DbTest, SyncCommitFlushesEveryTime) {
  open();
  for (int i = 0; i < 4; ++i) {
    Txn& txn = db->begin();
    ASSERT_TRUE(put_sync(txn, static_cast<Key>(i), row_of(kRow, i)));
    ASSERT_TRUE(commit_sync(txn));
  }
  EXPECT_EQ(db->wal().stats().flushes, 4u);
}

TEST_F(DbTest, BufferPoolEvictsUnderPressure) {
  DbConfig cfg = make_config();
  cfg.buffer_pool_pages = 4;  // 400 rows span ~8 pages: must evict
  open(cfg);
  for (int i = 0; i < 400; ++i) {
    Txn& txn = db->begin();
    ASSERT_TRUE(put_sync(txn, static_cast<Key>(i), row_of(kRow, i)));
    ASSERT_TRUE(commit_sync(txn));
  }
  EXPECT_LE(db->pool().resident_pages(), 6u);  // soft cap: transient pins
  EXPECT_GT(db->pool().stats().evictions, 0u);
  // All rows still readable (through evict + reload).
  for (int i = 0; i < 400; i += 37) {
    const auto [found, got] = get_sync(static_cast<Key>(i));
    EXPECT_TRUE(found) << i;
    EXPECT_EQ(got, row_of(kRow, i)) << i;
  }
}

TEST_F(DbTest, WalRecordCodecRoundTrip) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.txn = 77;
  rec.table = 3;
  rec.key = 0xDEADBEEFCAFEULL;
  rec.row = row_of(100, 5);
  rec.lsn = 1234;
  std::vector<std::byte> bytes;
  const std::size_t size = LogManager::encode(rec, rec.lsn, bytes);
  EXPECT_EQ(size, bytes.size());
  const auto decoded = LogManager::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->second, bytes.size());
  const WalRecord& out = decoded->first;
  EXPECT_EQ(out.txn, rec.txn);
  EXPECT_EQ(out.table, rec.table);
  EXPECT_EQ(out.key, rec.key);
  EXPECT_EQ(out.row, rec.row);
  EXPECT_EQ(out.lsn, rec.lsn);

  auto corrupt = bytes;
  corrupt[10] ^= std::byte{1};
  EXPECT_FALSE(LogManager::decode(corrupt).has_value());
  EXPECT_FALSE(LogManager::decode(std::vector<std::byte>(4)).has_value());
}

TEST_F(DbTest, CheckpointThenRecoverReplaysCommitted) {
  open();
  // Committed before checkpoint.
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 1, row_of(kRow, 1)));
  ASSERT_TRUE(commit_sync(t1));
  bool ckpt = false;
  db->checkpoint([&] { ckpt = true; });
  pump(ckpt);
  // Committed after checkpoint.
  Txn& t2 = db->begin();
  ASSERT_TRUE(put_sync(t2, 2, row_of(kRow, 2)));
  ASSERT_TRUE(commit_sync(t2));
  // In flight at crash (never committed).
  Txn& t3 = db->begin();
  ASSERT_TRUE(put_sync(t3, 3, row_of(kRow, 3)));

  // "Crash": rebuild the database stack over the same (standard-driver)
  // platters. The standard driver is synchronous so the platters are
  // current for everything the WAL flushed.
  db.reset();
  open();
  const auto report = db->recover();
  EXPECT_GE(report.txns_replayed, 1u);
  EXPECT_TRUE(get_sync(1).first);
  const auto [found2, got2] = get_sync(2);
  EXPECT_TRUE(found2);
  EXPECT_EQ(got2, row_of(kRow, 2));
  EXPECT_FALSE(get_sync(3).first) << "uncommitted txn must not survive";
}

TEST_F(DbTest, CheckpointWritesPagesPinnedAtItsSnapshot) {
  open();
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 1, row_of(kRow, 1)));
  ASSERT_TRUE(commit_sync(t1));
  // t2 changes a row on the same page and keeps it pinned across the
  // checkpoint's snapshot, so t1's committed change is not on disk yet.
  Txn& t2 = db->begin();
  ASSERT_TRUE(put_sync(t2, 2, row_of(kRow, 2)));
  bool ckpt = false;
  db->checkpoint([&] { ckpt = true; });
  sim.run();
  EXPECT_FALSE(ckpt) << "the checkpoint waits for the page pinned at its snapshot";
  ASSERT_TRUE(commit_sync(t2));
  pump(ckpt);

  db.reset();
  open();
  (void)db->recover();
  EXPECT_EQ(get_sync(1).second, row_of(kRow, 1)) << "committed before the checkpoint";
  EXPECT_EQ(get_sync(2).second, row_of(kRow, 2));
}

TEST_F(DbTest, RecoverIsIdempotent) {
  open();
  Txn& t1 = db->begin();
  ASSERT_TRUE(put_sync(t1, 10, row_of(kRow, 10)));
  ASSERT_TRUE(commit_sync(t1));
  db.reset();
  open();
  (void)db->recover();
  db.reset();
  open();
  (void)db->recover();
  EXPECT_EQ(get_sync(10).second, row_of(kRow, 10));
}

TEST_F(DbTest, OfflinePopulationVisibleAfterRecover) {
  open();
  for (Key k = 0; k < 50; ++k) db->table(items).load_row_offline(k, row_of(kRow, k));
  // Offline loads bypass the pool; they are durable by construction.
  EXPECT_EQ(db->table(items).row_count(), 50u);
  db.reset();
  open();
  (void)db->recover();
  EXPECT_EQ(db->table(items).row_count(), 50u);
  EXPECT_EQ(get_sync(17).second, row_of(kRow, 17));
}

TEST_F(DbTest, ChainRunsStepsInOrder) {
  std::vector<int> order;
  Chain chain;
  chain.then([&](Chain::Next next) {
    order.push_back(1);
    next();
  });
  chain.then([&](Chain::Next next) {
    order.push_back(2);
    // Asynchronous step.
    sim.schedule(sim::millis(1), [next] { next(); });
  });
  chain.then([&](Chain::Next next) {
    order.push_back(3);
    next();
  });
  bool done = false;
  std::move(chain).run([&] { done = true; });
  pump(done);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(DbTest, EmptyChainCompletes) {
  bool done = false;
  Chain{}.run([&] { done = true; });
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace trail::db

namespace trail::db {
namespace {

TEST_F(DbTest, WalFlushUntilIsBounded) {
  open();
  // Append three records; force durability only up to the second.
  LogManager& wal = db->wal();
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.table = 0;
  rec.row = row_of(64, 1);
  rec.txn = 1;
  (void)wal.append(rec);
  const Lsn second = wal.append(rec);
  const Lsn third = wal.append(rec);

  bool done = false;
  wal.flush_until(second + 1, [&] { done = true; });
  pump(done);
  EXPECT_GT(wal.durable_lsn(), second);
  // flush_until past the end clamps to next_lsn.
  done = false;
  wal.flush_until(third + 1'000'000, [&] { done = true; });
  pump(done);
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn());
  // Already durable: completes immediately, no extra flush.
  const auto flushes = wal.stats().flushes;
  done = false;
  wal.flush_until(second, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(wal.stats().flushes, flushes);
}

TEST_F(DbTest, WalFlushUntilBelowAWaitingCommitCompletesWithItsFlush) {
  open();
  LogManager& wal = db->wal();
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.row = row_of(64, 1);
  rec.txn = 1;
  bool first_done = false, second_done = false, page_done = false;
  wal.commit(wal.append(rec), [&] { first_done = true; });  // starts a flush
  const Lsn second = wal.append(rec);
  wal.commit(second, [&] { second_done = true; });  // waits for the next flush
  // A page's WAL bound that the flush in flight already covers.
  wal.flush_until(second, [&] { page_done = true; });
  audit::Report report;
  wal.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
  pump(page_done);
  EXPECT_TRUE(first_done);
  EXPECT_FALSE(second_done) << "the page write must not wait for the later commit's flush";
  pump(second_done);
}

}  // namespace
}  // namespace trail::db
