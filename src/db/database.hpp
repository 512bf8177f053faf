// Database: the engine facade — tables + WAL + buffer pool + locks +
// transactions + checkpointing + redo recovery.
//
// This is the reproduction's stand-in for the paper's Berkeley DB: the
// pieces §5.2 exercises (synchronous log flushes at commit, group commit
// by log-buffer size, bursty data-page I/O through a bounded cache,
// record locking with timeout aborts) are real; the access methods are
// hash-indexed fixed-size-row tables, which is all TPC-C needs.
//
// Transaction protocol: redo-only WAL + NO-STEAL buffer management.
// Updates apply in place to pinned pages and append redo records; commit
// appends a commit record and applies the flush policy; abort restores
// before-images. Recovery (at boot, through the block driver like every
// other database I/O) rebuilds table indexes from the pages and replays
// committed transactions from the last checkpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/buffer_pool.hpp"
#include "db/lock_manager.hpp"
#include "db/table.hpp"
#include "db/types.hpp"
#include "db/wal.hpp"
#include "core/trail_driver.hpp"
#include "fs/filesystem.hpp"
#include "io/block.hpp"
#include "sim/flat_map.hpp"
#include "sim/simulator.hpp"

namespace trail::db {

struct DbConfig {
  std::size_t buffer_pool_pages = 2048;               // 8 MB default cache
  sim::Duration lock_timeout = sim::millis(500);
  bool group_commit = false;
  std::size_t log_buffer_bytes = 50 * 1024;           // paper's default
  std::uint64_t log_region_sectors = 131'072;         // 64 MB log file
  std::uint64_t checkpoint_every_bytes = 8ull << 20;  // 0 = manual only
  sim::Duration cpu_per_txn = sim::micros(50);        // commit-path compute
};

struct DbStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

class Database;

/// A transaction handle. All operations are continuation-passing; any
/// callback receiving ok=false means a lock timed out and the caller must
/// abort the transaction. A transaction runs one operation at a time.
class Txn {
 public:
  using ReadDone = sim::Callback<void(bool found, RowView row)>;
  using LockedReadDone = sim::Callback<void(bool ok, bool found, RowView row)>;
  using WriteDone = sim::Callback<void(bool ok)>;

  [[nodiscard]] TxnId id() const { return id_; }
  [[nodiscard]] bool active() const { return active_; }

  /// Unlocked read (read-committed against short X-locks). `row` views
  /// the page frame and is valid for the call only.
  void get(TableId table, Key key, ReadDone cb);
  /// X-lock then read.
  void get_for_update(TableId table, Key key, LockedReadDone cb);
  /// X-lock, apply in place, log redo. Insert-or-update semantics. The
  /// row is copied before the call returns.
  void update(TableId table, Key key, RowView row, WriteDone cb);
  void insert(TableId table, Key key, RowView row, WriteDone cb);
  void remove(TableId table, Key key, WriteDone cb);

 private:
  friend class Database;
  struct Undo {
    TableId table;
    Key key;
    bool existed;
    std::size_t offset;  // before-image: undo_rows_[offset, offset + size)
    std::size_t size;
  };
  struct Pin {
    TableId table;
    PageNo page;
  };

  /// Throws if an operation is already in flight.
  void begin_op() const;
  void write_common(TableId table, Key key, RowView row, WalRecordType type, WriteDone cb);
  /// The write in flight, once its lock is granted and its before-image read.
  void apply_write(bool existed, RowView before);
  void record_undo(TableId table, Key key, bool existed, RowView before);
  void pin_row(TableId table, Key key);
  /// Hand the operation's result to its continuation, which may start the
  /// next operation.
  void finish_write(bool ok);

  /// The write in flight, as its redo record: the WAL encodes it and the
  /// table applies its row from here. Its row buffer is reused.
  WalRecord write_;
  // The continuation of the operation in flight. It waits here, so the
  // lock, table and pool layers capture only `this`.
  ReadDone read_done_;
  LockedReadDone locked_read_done_;
  WriteDone write_done_;
  sim::Callback<void(bool committed)> commit_done_;

  Database* db_ = nullptr;
  TxnId id_ = 0;
  bool active_ = false;
  Lsn first_lsn_ = kInvalidLsn;
  Lsn last_lsn_ = 0;
  std::vector<Undo> undo_;  // one per row touched, in first-touch order
  RowBuf undo_rows_;        // their before-images, back to back
  std::vector<Pin> pins_;
};

class Database {
 public:
  /// `log_device` hosts the WAL region ([meta page][log bytes...] from
  /// LBA 0); tables are carved from data devices by create_table.
  Database(sim::Simulator& sim, io::BlockDriver& driver, io::DeviceId log_device,
           DbConfig config = {});
  ~Database() { *alive_ = false; }

  /// Register the DiskDevice behind a DeviceId for offline population
  /// (Table::load_row_offline, BTree bulk loads), which writes the
  /// platters directly, like a formatter.
  void attach_device(io::DeviceId id, disk::DiskDevice& device);

  /// Place this device's database structures in named files of an
  /// "EXT2" filesystem instead of raw carved regions. Must be called
  /// before create_table; when the log device gets a filesystem, the WAL
  /// moves into a "wal.log" file whose O_SYNC appends also write the
  /// inode (the paper's EXT2 logging cost), and the meta page into
  /// "db.meta". Reopening an existing database picks up the same files.
  void attach_filesystem(io::DeviceId id, fs::Filesystem& filesystem);

  /// §6 future work: log straight onto the Trail log disk instead of into
  /// a log-file region — commits become single Trail appends, checkpoint
  /// truncation frees log tracks, and recovery replays from the records
  /// Trail's own recovery found. Call before running transactions; the
  /// driver passed to the constructor must be this TrailDriver.
  void enable_direct_logging(core::TrailDriver& trail);

  /// Create a table on `device`, sized for `capacity_rows`. Must be called
  /// identically (same order) when re-opening an existing database.
  TableId create_table(const std::string& name, std::uint32_t row_size,
                       std::uint64_t capacity_rows, io::DeviceId device);

  /// Carve a named raw sector region on `device` (a file when a
  /// filesystem is attached) — e.g. for secondary-index page files.
  /// Reopening an existing database returns the same region.
  disk::Lba allocate_region(const std::string& name, std::uint64_t sectors,
                            io::DeviceId device);

  [[nodiscard]] Table& table(TableId id) { return *tables_.at(id); }
  [[nodiscard]] Table& table_named(const std::string& name);

  /// Begin a transaction. The handle stays valid until commit/abort done.
  Txn& begin();
  /// Commit: appends the commit record, applies the flush policy, then
  /// releases locks/pins. done(true) on success.
  void commit(Txn& txn, sim::Callback<void(bool committed)> done);
  /// Roll back all of the transaction's effects.
  void abort(Txn& txn, sim::Callback<void()> done);

  /// Fuzzy checkpoint: flush the WAL, write every page dirty at the
  /// snapshot (BufferPool::flush_dirty), then the checkpoint record + meta
  /// page naming the snapshot as the replay point. Safe to run
  /// concurrently with txns; it finishes after the transactions active at
  /// the snapshot release their pages.
  void checkpoint(std::function<void()> done);

  /// Boot-time recovery, on a freshly opened database over a mounted
  /// driver: read every table's pages, the meta page and the WAL through
  /// the block driver (stepping the simulator until each read completes),
  /// rebuild the table indexes from the pages, then redo the committed
  /// transactions since the last checkpoint through the buffer pool and
  /// flush the redone pages before returning.
  struct RecoveryReport {
    Lsn checkpoint_lsn = 0;
    std::uint64_t records_scanned = 0;
    std::uint64_t txns_replayed = 0;
    std::uint64_t rows_applied = 0;
  };
  RecoveryReport recover();

  /// Invariant audit (trail::audit, DESIGN.md §9): WAL sequence, buffer-
  /// pool frame bookkeeping, transaction registry. `quiescent` asserts
  /// the post-checkpoint state — everything durable, no flush in flight,
  /// and (when no transaction is active) zero pins. With TRAIL_AUDIT
  /// defined it runs automatically after checkpoint() and recover() and
  /// throws std::logic_error on any error finding.
  void run_audit(audit::Report& report, bool quiescent = false) const;

  [[nodiscard]] LogManager& wal() { return *wal_; }
  [[nodiscard]] io::BlockDriver& driver() { return driver_; }
  /// The offline DiskDevice attached for `id`, or nullptr.
  [[nodiscard]] disk::DiskDevice* offline_device(io::DeviceId id) const {
    auto it = devices_.find(id.index());
    return it == devices_.end() ? nullptr : it->second;
  }
  [[nodiscard]] BufferPool& pool() { return *pool_; }
  [[nodiscard]] LockManager& locks() { return *locks_; }
  [[nodiscard]] const DbStats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const DbConfig& config() const { return config_; }

 private:
  friend class Txn;
  void finish_commit_at(Lsn lsn, TxnId id);
  void release(Txn& txn);
  void maybe_auto_checkpoint();
  void write_meta(Lsn checkpoint_lsn, std::function<void()> done);
  /// TRAIL_AUDIT hook: run_audit(quiescent=true), throw on errors.
  void quiesce_audit(const char* where) const;

  static constexpr std::uint32_t kMetaSectors = kSectorsPerPage;

  sim::Simulator& sim_;
  io::BlockDriver& driver_;
  io::DeviceId log_device_;
  DbConfig config_;
  std::unique_ptr<LogManager> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LockManager> locks_;

  std::map<std::uint16_t, disk::DiskDevice*> devices_;
  std::map<std::uint16_t, fs::Filesystem*> filesystems_;
  disk::Lba meta_base_ = 0;       // LBA of the meta page on the log device
  disk::Lba wal_base_ = 0;        // first LBA of the WAL region/file
  std::map<std::uint16_t, disk::Lba> alloc_cursor_;  // per-device next free LBA
  std::vector<std::unique_ptr<PageFile>> files_;
  std::vector<std::unique_ptr<Table>> tables_;

  core::TrailDriver* direct_trail_ = nullptr;
  sim::FlatMap<std::unique_ptr<Txn>> active_txns_;
  /// Finished transactions, kept for reuse with their vectors' capacity.
  std::vector<std::unique_ptr<Txn>> spare_txns_;
  TxnId next_txn_ = 1;  // 0 is the LockManager's "no holder" sentinel
  Lsn last_checkpoint_lsn_ = 0;
  bool checkpoint_running_ = false;
  DbStats stats_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::db
