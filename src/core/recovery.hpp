// Crash recovery (§3.3, Fig. 4): the log reader.
//
// §3.3 recovers in three phases. This pipeline runs the first two, each
// timed separately for the Fig. 4 breakdown:
//
//  1. LOCATE the youngest active write record: per-track scans driven by
//     one binary search over each log disk's circular track ring,
//     anchored on the track the crashed epoch's writer started on (the
//     disk header's resume_track). The writer keeps core::RingOrder's
//     invariant (unstamped tracks only in one run after the newest,
//     stamps increasing clockwise), so when that track is stamped,
//     "stamped with a key at least the anchor's" splits the ring
//     clockwise from it into one true run and one false run, and
//     ⌈lg N⌉ more scans find the disk's newest track. When it is
//     unstamped, the epoch wrote nothing there, and the newest track is
//     the usable track before it, or the ring is empty (DESIGN.md §5,
//     invariant 9): one more scan decides. The global youngest is the
//     max across disks. A sequential scan of every track is the paper's
//     baseline (ablation).
//
//  2. REBUILD the pending-record set: core::ChainWalk back along
//     prev_sect from the youngest record — across log disks via encoded
//     log pointers — to the first intact record's log_head bound, each
//     record decoded by core::read_record out of the track cache. Torn
//     tail records (payload CRC mismatch — possible only for
//     unacknowledged final physical writes) are dropped. A youngest
//     record older than the oldest pending epoch (the previous session
//     already wrote it back) means nothing is pending.
//
// Phase 3 belongs to the mount: it writes the pending records back to
// the data disks, or adopts them as live state (Fig. 4b), since a
// persistent copy already exists on the log disk. The walk hands each
// pending record to the caller as soon as it is decoded, youngest first,
// so the mount (TrailDriver::mount_async) streams the write-back behind
// the walk while the log disk is still being read. A sharded mount runs
// one such mount per shard: each shard is a whole Trail volume.
//
// Both phases run as one bounded-depth asynchronous pipeline
// (DESIGN.md §12), the same algorithm at every depth. Reads go through a
// per-unit io::DeviceQueue so the elevator can order the outstanding
// window. The binary search is serial by nature: locate keeps one scan
// in flight per unit (all units search at once), and only its
// sequential scan uses a window of pipeline_depth. The rebuild phase
// walks the live arc out of a track cache whose misses prefetch up to
// pipeline_depth - 1 older tracks. Depth 1 is the same pipeline with a
// window of one: every depth recovers the same pending set.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/format_tool.hpp"
#include "core/log_format.hpp"
#include "disk/disk_device.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace trail::io {
class DeviceQueue;
}

namespace trail::core {

struct RecoveredRecord {
  RecordHeader header;
  std::uint8_t log_unit = 0;
  disk::Lba header_lba = 0;
  disk::TrackId track = 0;
  /// Unescaped payload image, header.batch_size sectors.
  std::vector<std::byte> payload;
};

struct RecoveryStats {
  sim::Duration locate_time;
  std::uint32_t tracks_scanned = 0;
  sim::Duration rebuild_time;
  std::uint32_t records_found = 0;
  std::uint32_t records_dropped_torn = 0;
  /// Phase 3, filled by the mount that writes the records back. The
  /// mount's wait for phase 3 after the walk ends: the write-back streams
  /// behind the walk, so this covers only its last writes.
  sim::Duration writeback_time;
  std::uint64_t sectors_written_back = 0;
};

class RecoveryManager {
 public:
  struct Options {
    /// Scan every usable track instead of the anchored binary search:
    /// the O(N) baseline Fig. 4 compares against (ablation).
    bool sequential_locate = false;
    /// Bounded in-flight read window per log unit: the rebuild prefetch
    /// breadth (the demanded track plus up to depth - 1 older ones) and
    /// the sequential locate scan's window. The binary search keeps one
    /// scan in flight per unit at every depth. 1 keeps one read in
    /// flight per unit and never prefetches.
    std::uint32_t pipeline_depth = 8;
  };

  RecoveryManager(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks);
  ~RecoveryManager();

  /// Optional observability: per-phase spans ("recovery.locate" /
  /// "recovery.rebuild"), a per-track-scan probe instant, and
  /// track/record counters on the recovery lane. The prefix and lane let
  /// a sharded mount scope each shard's recovery (prefix "shard.k.", a
  /// lane inside the shard's tid block).
  void attach_obs(obs::Obs* obs, std::string metric_prefix = "",
                  std::uint32_t tid = obs::kRecoveryTid) {
    obs_ = obs;
    metric_prefix_ = std::move(metric_prefix);
    tid_ = tid;
  }

  struct Outcome {
    RecoveryStats stats;
    /// Pending records in ascending key order. Non-empty payloads.
    std::vector<RecoveredRecord> pending;
  };
  using RecordSink = std::function<void(const RecoveredRecord&)>;

  /// Start recovery for the crashed epoch and return; `done` fires (from
  /// a device completion) when locate + rebuild finish. `headers` holds
  /// each log unit's disk header as the mount read it. Records of
  /// *earlier* epochs can also be pending when a previous recovery
  /// adopted them instead of writing them back, so the newest stamped
  /// epoch is an upper bound, core::oldest_pending_epoch of the headers
  /// the lower one, and ordering uses record_key. Each unit's locate
  /// starts on its header's resume_track; a header whose resume_track is
  /// not a usable track throws. Never steps the simulator itself, so a
  /// sharded mount can start every shard's mount and let them interleave
  /// on virtual time. `on_record`, when set, receives each pending record
  /// the moment the walk keeps it, youngest first; a walk that later
  /// fails has handed over exactly the records above the failure.
  void start(const std::vector<LogDiskHeader>& headers, const Options& options,
             RecordSink on_record, std::function<void(Outcome)> done);

 private:
  struct Unit {
    disk::DiskDevice* device = nullptr;
    std::vector<disk::TrackId> usable;  // ring, physical order (ascending)
  };
  struct TrackKey {
    bool present = false;
    std::uint64_t key = 0;  // record_key(epoch, sequence_id)
    std::uint8_t unit = 0;
    disk::Lba header_lba = 0;
    [[nodiscard]] TrackStamp stamp() const { return present ? TrackStamp(key) : std::nullopt; }
  };
  struct Pipe;  // the locate + rebuild pipeline (defined in recovery.cpp)

  sim::Simulator& sim_;
  std::vector<Unit> units_;
  obs::Obs* obs_ = nullptr;
  std::string metric_prefix_;
  std::uint32_t tid_ = obs::kRecoveryTid;
  std::shared_ptr<Pipe> pipe_;
  /// Read queues for the locate/rebuild pipeline. Owned here, not by the
  /// Pipe: a queue completion may release the last Pipe reference while
  /// the queue's pump() is still on the stack, so the queue must outlive
  /// the Pipe.
  std::vector<std::unique_ptr<io::DeviceQueue>> read_queues_;
};

}  // namespace trail::core
