// Database buffer cache: a single pool of 4 KB frames over all page
// files (the paper's "database buffer cache, which is set to 300 MBytes"
// — sized down here and made configurable so data-disk read traffic
// appears at realistic ratios).
//
// Policy notes:
//  * LRU eviction over unpinned frames.
//  * NO-STEAL: frames pinned by an in-flight transaction are never
//    evicted or checkpoint-flushed, so pages on disk only ever contain
//    committed data and crash recovery is redo-only.
//  * WAL rule: writing a dirty frame flushes the WAL first.
//  * Every page write is of a copy taken while the frame was unpinned,
//    and a frame has at most one write in flight ("flushing"). A change
//    made while the write is in flight bumps the frame's version, so the
//    completion leaves the frame dirty instead of dropping the change.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/page_file.hpp"
#include "db/types.hpp"
#include "db/wal.hpp"
#include "obs/obs.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace trail::audit {
class Report;
}

namespace trail::db {

struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;  // eviction-driven page writes
  std::uint64_t checkpoint_writes = 0;
};

class BufferPool {
 public:
  /// `wal` may be null (no WAL rule enforcement — tests only).
  BufferPool(sim::Simulator& sim, std::size_t capacity_pages, LogManager* wal = nullptr);
  ~BufferPool() { *alive_ = false; }

  std::uint32_t register_file(PageFile& file);

  /// Optional observability: hit/miss/eviction counters, a resident-page
  /// gauge, page-load spans and dirty-eviction instants on the cache lane.
  void attach_obs(obs::Obs* obs);

  using Use = sim::Callback<void(std::span<std::byte> page)>;

  /// Fetch a page and hand its frame bytes to `use`. The span is valid
  /// for the duration of the callback only; to mutate, write through it
  /// and call mark_dirty before returning.
  void fetch(std::uint32_t file_id, PageNo page, Use use);

  void mark_dirty(std::uint32_t file_id, PageNo page);

  /// NO-STEAL pins: a pinned frame is not evicted or checkpoint-flushed.
  void pin(std::uint32_t file_id, PageNo page);
  void unpin(std::uint32_t file_id, PageNo page);

  /// Checkpoint page flush. At the call (the snapshot) copy every dirty
  /// frame that is unpinned and idle; a dirty frame that is pinned or has
  /// an eviction write in flight is copied the moment it becomes unpinned
  /// and idle. The copies go to disk with at most kCheckpointWindow
  /// writes outstanding, each after the WAL is durable to its flush LSN.
  /// `done` fires once every frame dirty at the snapshot has been written.
  /// One flush at a time.
  void flush_dirty(std::function<void()> done);

  /// Page writes a checkpoint keeps outstanding: enough to keep the data
  /// path busy, few enough that a commit's log write or a page read never
  /// queues behind the whole snapshot in the block driver.
  static constexpr std::size_t kCheckpointWindow = 8;

  /// Drop every frame, before an offline bulk load rewrites the platters.
  /// Throws std::logic_error if a frame is dirty: its change would be lost.
  void reset();

  /// Invariant audit ("pool.frames"): LRU <-> frame-map agreement, frame
  /// sizing, WAL-rule flush LSNs, frames awaiting capture only while a
  /// checkpoint runs. With `quiescent` (post-checkpoint, no transaction
  /// active) additionally requires zero pins and no frame
  /// mid-load/mid-flush. See DESIGN.md §9.
  void audit(audit::Report& report, bool quiescent = false) const;

  [[nodiscard]] const BufferPoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t resident_pages() const { return frames_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dirty_pages() const;

 private:
  struct FrameKey {
    std::uint32_t file;
    PageNo page;
    bool operator==(const FrameKey&) const = default;
  };
  struct FrameKeyHash {
    std::size_t operator()(const FrameKey& k) const {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.file) << 32) | k.page);
    }
  };
  struct Frame {
    std::vector<std::byte> data;
    bool dirty = false;
    std::uint64_t version = 0;  // bumped by every mark_dirty
    Lsn flush_lsn = 0;  // WAL must be durable to here before page write
    bool loading = false;
    bool flushing = false;  // a write of a copy is in flight or queued
    bool capture_pending = false;  // dirty at the running checkpoint's snapshot, not yet copied
    std::uint32_t pins = 0;
    std::vector<Use> waiters;  // during load
    std::list<FrameKey>::iterator lru_pos;
  };
  /// A frame's image as of one moment, with the version and WAL bound it
  /// had then: what a page write puts on disk, and what to do when it is
  /// there. The pool keeps every copy in copies_, named by its index, so
  /// a write's continuations capture the index, not the copy.
  struct Copy {
    FrameKey key;
    std::vector<std::byte> image;  // kept across reuse of the copy
    std::uint64_t version = 0;
    Lsn flush_lsn = 0;
    std::function<void(Frame&)> done;
  };
  struct Checkpoint {
    std::deque<std::uint32_t> queue;  // copies taken, not yet submitted
    std::size_t in_flight = 0;
    std::size_t uncaptured = 0;  // frames with capture_pending
    std::function<void()> done;
  };

  /// A hit waiting out its CPU charge.
  struct Hit {
    FrameKey key;
    Use use;
  };

  using FrameMap = std::unordered_map<FrameKey, std::unique_ptr<Frame>, FrameKeyHash>;

  /// Add a frame for `key` at the LRU front, reusing an evicted frame's
  /// map node, list node and page buffer when there is one.
  Frame* insert_frame(const FrameKey& key);
  /// Evict: keep the frame's nodes for insert_frame.
  void drop_frame(const FrameKey& key, std::list<FrameKey>::iterator lru_pos);
  void touch(Frame& frame);
  /// Serve the oldest pending hit.
  void serve_hit();
  void maybe_evict();
  Frame& frame_at(std::uint32_t file_id, PageNo page);
  /// Copy `frame` for a write; the frame is flushing until the write ends.
  std::uint32_t take_copy(const FrameKey& key, Frame& frame);
  /// WAL rule, then write copy `copy`; `done` runs once it is on disk,
  /// after the frame is idle again and clean unless it changed since the
  /// copy. The copy is free for the next take_copy once `done` starts.
  void write_copy(std::uint32_t copy, std::function<void(Frame&)> done);
  /// Copy a frame awaiting capture once it is unpinned and idle (or just
  /// release it, when an eviction write already covered the snapshot).
  void capture_if_idle(const FrameKey& key, Frame& frame);
  /// Keep the checkpoint's window full; fire `done` once nothing is left.
  void pump_checkpoint();

  sim::Simulator& sim_;
  std::size_t capacity_;
  LogManager* wal_;
  std::vector<PageFile*> files_;
  // Its iteration order is flush_dirty's snapshot order, which sets the
  // checkpoint's write order: keep the container.
  FrameMap frames_;
  std::list<FrameKey> lru_;  // front = most recent
  std::vector<FrameMap::node_type> spare_frames_;  // evicted, kept for reuse
  std::list<FrameKey> spare_lru_;
  // Every hit waits the same delay, so they fire in the order queued:
  // the event carries no callback, it serves hits_[hits_head_].
  std::vector<Hit> hits_;
  std::size_t hits_head_ = 0;
  BufferPoolStats stats_;
  obs::Obs* obs_ = nullptr;
  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_dirty_wb_ = nullptr;
  obs::Gauge* g_resident_ = nullptr;
  std::unique_ptr<Checkpoint> ckpt_;  // the running flush_dirty, if any
  std::vector<Copy> copies_;  // page-write copies, by index
  std::vector<std::uint32_t> free_copies_;
  /// Guards outstanding device completions across host-crash teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::db
