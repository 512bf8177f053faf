// Write-ahead log over a dedicated log-file device region.
//
// Mirrors the paper's §5.2 setup: "The database log file is opened with
// the O_SYNC flag, so that each write to the database log will be a
// synchronous one", and group commit is simulated by "a fixed log buffer
// size as the criterion to decide when to flush database records to disk
// synchronously".
//
// Flush policies:
//  * kSyncEveryCommit — each commit flushes the buffer and waits; on
//    Trail this is cheap (the EXT2+Trail row of Table 2), on the standard
//    driver it pays seek+rotation (the EXT2 row).
//  * kGroupCommit     — commits return immediately (delayed durability,
//    exactly the compromise §5.2 describes) unless the buffered bytes
//    exceed the configured log-buffer size, in which case the committing
//    transaction performs — and waits for — the synchronous flush (the
//    EXT2+GC row; flush count is Table 3's "number of group commits").
//
// Record format (little-endian):
//   [u32 length][u32 crc of payload][u64 lsn][u8 type][payload...]
// LSNs are logical byte offsets; the log region is written sequentially,
// one rewrite of the partially-filled tail sector per flush, like an
// O_SYNC file append.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "db/types.hpp"
#include "io/block.hpp"
#include "obs/obs.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace trail::audit {
class Report;
}

namespace trail::db {

enum class WalRecordType : std::uint8_t {
  kUpdate = 1,      // table, key, row image (redo)
  kInsert = 2,      // table, key, row image
  kCommit = 3,      // txn id
  kCheckpoint = 4,  // no payload beyond the lsn
  kDelete = 5,      // table, key (row removal)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  TxnId txn = 0;
  TableId table = 0;
  Key key = 0;
  RowBuf row;     // update/insert only
  Lsn lsn = 0;    // filled by append / scan
};

struct WalConfig {
  io::BlockAddr region_base;          // first sector of the log region
  std::uint64_t region_sectors = 0;   // region capacity
  bool group_commit = false;
  std::size_t group_commit_bytes = 50 * 1024;  // paper default: 50 KB
  /// Emulates the ext2 O_SYNC log file of §5.2: a flush larger than this
  /// is issued as consecutive synchronous writes of at most this many
  /// sectors, each waiting for the previous ("the file system tends to
  /// split a large user-level file access request into multiple
  /// consecutive small low-level write requests", §5.1). On a standard
  /// disk every chunk after the first misses the rotation; under Trail
  /// each chunk lands at the head. 0 = single write per flush.
  std::uint32_t sync_chunk_sectors = 8;  // 4 KB file-system blocks
};

struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t flushes = 0;          // synchronous disk writes (Table 3)
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flushed_sectors = 0;
  sim::Duration flush_wait;           // total time commits spent waiting
  sim::Duration flush_io_time;        // submit->durable per flush (Table 2's
                                      // "disk I/O time for logging")
  sim::Duration durability_lag;       // commit-return -> durable, summed over
                                      // group commits (the durability window
                                      // the paper's 0.90 s GC "response" shows)
  std::uint64_t lag_samples = 0;
};

class LogManager {
 public:
  LogManager(sim::Simulator& sim, io::BlockDriver& driver, WalConfig config);
  ~LogManager() { *alive_ = false; }

  /// Optional observability: a commit-wait histogram ("wal.commit_wait_ns"),
  /// a per-flush span histogram ("wal.flush_ns"), flush spans
  /// ("wal.flush") and deferred-commit instants on the WAL lane.
  void attach_obs(obs::Obs* obs) {
    obs_ = obs;
    h_commit_wait_ = obs != nullptr ? &obs->metrics.histogram("wal.commit_wait_ns") : nullptr;
    h_flush_ = obs != nullptr ? &obs->metrics.histogram("wal.flush_ns") : nullptr;
    if (obs != nullptr) obs->tracer.set_track_name(obs::kWalTid, "wal");
  }

  /// Direct track-based logging (§6 future work): instead of writing the
  /// log region of a file device, flushes append their bytes straight to
  /// the Trail log disk as direct records, and truncation releases them.
  /// `append(bytes, cookie, done)`; `release(cookie)`.
  using DirectAppendFn =
      std::function<void(std::span<const std::byte>, std::uint64_t, std::function<void()>)>;
  using DirectReleaseFn = std::function<void(std::uint64_t)>;
  void set_direct_backend(DirectAppendFn append, DirectReleaseFn release) {
    direct_append_ = std::move(append);
    direct_release_ = std::move(release);
  }
  [[nodiscard]] bool direct_mode() const { return static_cast<bool>(direct_append_); }

  /// O_SYNC file semantics: when a flush grows the log file, the file
  /// system's inode must be made durable before the flush completes. The
  /// hook receives the new file size in sectors and a continuation.
  using GrowFn = std::function<void(std::uint64_t new_sectors, std::function<void()>)>;
  void set_grow_hook(GrowFn hook) { on_grow_ = std::move(hook); }

  /// Append a record (its `lsn` field is ignored) to the in-memory log
  /// buffer, encoded in place; returns its LSN.
  Lsn append(const WalRecord& record);

  using Done = sim::Callback<void()>;

  /// Commit point for a transaction whose newest record is `lsn`:
  /// applies the flush policy and calls `done` when the commit completes
  /// per that policy (NOT necessarily when it is durable, under group
  /// commit — that is the point).
  void commit(Lsn lsn, Done done);

  /// Force everything buffered to disk (checkpoint / shutdown path).
  void flush_all(Done done);

  /// Ensure bytes below `target` are durable (WAL rule before a data-page
  /// write); completes immediately when already durable.
  void flush_until(Lsn target, Done done);

  [[nodiscard]] Lsn next_lsn() const { return next_lsn_; }
  [[nodiscard]] Lsn durable_lsn() const { return durable_lsn_; }
  [[nodiscard]] const WalStats& stats() const { return stats_; }

  /// Reset positions after offline recovery: the log is durable through
  /// `lsn`; `tail` holds the bytes of the partially-filled final sector
  /// ([lsn/512*512, lsn)) so the next flush rewrites it coherently.
  void restore(Lsn lsn, std::vector<std::byte> tail);

  /// Restore for direct mode: appends are byte-granular, so no tail sector
  /// is re-buffered.
  void restore_direct(Lsn lsn);

  /// Truncate: records below `lsn` are no longer needed (post-checkpoint).
  /// In direct mode this releases the corresponding Trail records.
  void set_truncate_point(Lsn lsn) {
    truncate_lsn_ = lsn;
    if (direct_release_) direct_release_(lsn);
  }
  [[nodiscard]] Lsn truncate_point() const { return truncate_lsn_; }

  /// Invariant audit ("wal.sequence"): LSN ordering
  /// (truncate <= durable <= next), buffer span agreement, flush/waiter
  /// targets in range. With `quiescent` (checkpoint / shutdown: no flush
  /// may be in flight) additionally requires everything durable and no
  /// waiters. See DESIGN.md §9.
  void audit(audit::Report& report, bool quiescent = false) const;

  // ---- serialization (shared with recovery) ----
  /// Append `record`'s encoding, stamped with `lsn` (the record's own
  /// `lsn` field is not read), to `out`; returns its size.
  static std::size_t encode(const WalRecord& record, Lsn lsn, std::vector<std::byte>& out);
  /// Decode one record at `data` (which starts at a record boundary).
  /// Returns record + encoded size, or nullopt if invalid/end-of-log.
  static std::optional<std::pair<WalRecord, std::size_t>> decode(
      std::span<const std::byte> data);

 private:
  void start_flush();
  void complete_waiters();

  sim::Simulator& sim_;
  io::BlockDriver& driver_;
  WalConfig config_;
  WalStats stats_;
  obs::Obs* obs_ = nullptr;
  obs::Histogram* h_commit_wait_ = nullptr;
  obs::Histogram* h_flush_ = nullptr;
  /// Record a completed flush span into the attribution metrics.
  void note_flush_span(sim::TimePoint submit_time);

  std::vector<std::byte> buffer_;  // bytes [buffer_base_, next_lsn_)
  Lsn buffer_base_ = 0;            // lsn of buffer_[0]
  Lsn next_lsn_ = 0;
  Lsn durable_lsn_ = 0;
  Lsn truncate_lsn_ = 0;
  bool flush_in_flight_ = false;
  Lsn flush_target_ = 0;

  struct Waiter {
    Lsn target;  // complete when durable_lsn_ >= target
    Done done;
    sim::TimePoint since;
  };
  std::deque<Waiter> waiters_;
  std::deque<std::pair<Lsn, sim::TimePoint>> deferred_commits_;  // GC lag tracking
  DirectAppendFn direct_append_;
  DirectReleaseFn direct_release_;
  GrowFn on_grow_;
  Lsn grown_bytes_ = 0;  // high-water file size, in bytes
  /// Outstanding I/O completions check this: the host may "crash" (the
  /// engine object is destroyed) while device I/O is still in flight.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::db
