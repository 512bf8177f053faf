// The Trail driver (§4): a BlockDriver that services synchronous writes
// at log-disk transfer speed.
//
// Write path (§4.2): requests queue in the log queue; whenever a log
// disk is free, everything queued is batched into one physical write
// placed at the next free sector at/after the predicted head position on
// that disk's current log track. Completion of that physical write *is*
// the synchronous-write acknowledgement. The payload stays pinned in the
// buffer manager and trickles to the data disks in the background; reads
// are served from pinned memory when possible and otherwise hit the data
// disks at higher priority than write-backs (§4.3).
//
// After each physical log write the driver moves that disk's head to the
// closest sector of the next track (by issuing a read, exactly as the
// paper does) once the track's utilization exceeds the configured
// threshold (30% in the paper), maintaining the invariant that the head
// always sits on a track with room for the next batch. An idle timer
// repositions periodically so the prediction references never go stale
// (§3.1).
//
// Multiple log disks (§5.1's final optimization) are supported: while one
// disk repositions, the next batch is steered to an idle one, hiding the
// repositioning overhead entirely. Record pointers encode (disk, LBA) so
// the recovery chain crosses disks; each disk keeps its own circular
// track ring, head predictor, and header replicas.
//
// Mount/unmount implement the crash_var protocol of §3.3: mount finds
// crash_var != 1 => run recovery (write-back or adopt-pending per
// config), then stamps a new epoch with crash_var = 0, or 2 when it
// adopted pending records of earlier epochs; a clean unmount drains
// write-back and stamps crash_var = 1.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_manager.hpp"
#include "core/format_tool.hpp"
#include "core/log_format.hpp"
#include "core/recovery.hpp"
#include "core/track_allocator.hpp"
#include "disk/disk_device.hpp"
#include "disk/seek_model.hpp"
#include "io/block.hpp"
#include "io/device_queue.hpp"
#include "io/head_predictor.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace trail::core {

struct TrailConfig {
  /// Track-utilization threshold beyond which the head moves to the next
  /// track after a write (0.30 in the prototype, §4.2). 0 reproduces the
  /// move-after-every-write scheme of [7]; 1 packs tracks completely.
  double track_utilization_threshold = 0.30;
  /// δ — head-prediction lead time covering command-processing overhead
  /// (§3.1). Duration{0} means "use the calibrated-equivalent default",
  /// i.e. the log-disk profile's published command overhead.
  sim::Duration delta{0};
  /// Period of the idle-time head repositioning that keeps the prediction
  /// references fresh (§3.1). Duration{0} disables it (ablation).
  sim::Duration idle_reposition_period = sim::millis(500);
  /// Max *requests* folded into one physical log write; 0 = unlimited.
  /// Sweeping this reproduces Table 1; 1 disables batching.
  std::uint32_t max_requests_per_physical = 0;
  /// Max dirty ranges coalesced into one data-disk write-back command by
  /// the per-disk CSCAN dispatcher (§4.2–§4.3): queued write-backs whose
  /// ranges are adjacent or overlapping merge into a single device
  /// command, with settled sub-ranges dropping out at dispatch.
  /// 1 disables coalescing (one command per record run, the pre-batching
  /// behaviour); must be >= 1.
  std::uint32_t max_writeback_ranges = 32;
  /// Recovery policy at mount (Fig. 4b): write the recovered block
  /// records' newest content back to the data disks before resuming
  /// (recovery phase 3, run by the mount), or adopt them as live state and
  /// let the normal write-back path drain them. Direct-log records are
  /// always adopted.
  bool recovery_write_back = true;
  /// Force the O(N) sequential locate during recovery (ablation).
  bool recovery_sequential_locate = false;
  /// Bounded in-flight read window per log unit during recovery
  /// (RecoveryManager::Options::pipeline_depth): the rebuild prefetch
  /// breadth and the sequential locate scan's window; locate's binary
  /// search keeps one scan in flight at every depth. Every depth runs the
  /// same algorithm; 1 keeps one read in flight per unit.
  std::uint32_t recovery_pipeline_depth = 8;
};

struct TrailStats {
  std::uint64_t requests_logged = 0;    // acknowledged synchronous writes
  std::uint64_t sectors_logged = 0;     // payload sectors on the log disks
  std::uint64_t physical_log_writes = 0;
  std::uint64_t records_written = 0;    // record headers (>= physical writes)
  std::uint64_t track_switches = 0;     // utilization-triggered repositions
  std::uint64_t idle_repositions = 0;
  std::uint64_t log_full_stalls = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_buffer_hits = 0;   // served entirely from pinned memory
  std::uint64_t writebacks = 0;           // dirty ranges enqueued for write-back
  std::uint64_t writeback_sectors = 0;
  std::uint64_t writebacks_skipped = 0;   // superseded before dispatch (§4.2)
  std::uint64_t writebacks_dispatched = 0;  // ranges that reached a data disk
  std::uint64_t writeback_commands = 0;   // physical data-disk write commands
                                          // (< dispatched when ranges coalesce)

  /// Mean requests per physical log write (the batching factor).
  [[nodiscard]] double mean_batch_size() const {
    return physical_log_writes == 0
               ? 0.0
               : static_cast<double>(requests_logged) / static_cast<double>(physical_log_writes);
  }

  bool operator==(const TrailStats&) const = default;

  /// Deterministic one-line JSON snapshot (field order fixed); the
  /// determinism test compares these serialized snapshots, and benches
  /// embed them in their metrics blocks.
  [[nodiscard]] std::string to_json() const;
};

/// Where a driver's observability lands: metric-name prefix plus the
/// trace-lane (tid) layout. The default scope is the classic single-driver
/// layout; a ShardedDriver gives shard k the prefix "shard.k." and a
/// private lane block at obs::kShardTidBase + k * obs::kShardTidStride.
struct ObsScope {
  std::string metric_prefix;  // prepended to every metric/track name
  std::uint32_t unit_tid_base = 0;                      // log-unit lanes
  std::uint32_t data_tid_base = obs::kDataDiskTidBase;  // data-disk lanes
  std::uint32_t driver_tid = obs::kDriverTid;
  std::uint32_t recovery_tid = obs::kRecoveryTid;
  std::uint32_t shard_id = 0;  // flight-record shard tag
  /// Request-scoped causal attribution (obs::ReqTracker): per-phase
  /// latency histograms + flight records for every synchronous write.
  /// On by default; benches switch it off to measure its own overhead.
  bool request_attribution = true;
};

class TrailDriver final : public io::BlockDriver {
 public:
  /// Single log disk (the paper's prototype). Must be formatted.
  TrailDriver(sim::Simulator& sim, disk::DiskDevice& log_disk, TrailConfig config = {});
  /// Multiple log disks (§5.1's final optimization). All must be
  /// formatted; 1..15 disks.
  TrailDriver(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks,
              TrailConfig config = {});
  ~TrailDriver() override;

  /// Register a data disk; returns its DeviceId.
  io::DeviceId add_data_disk(disk::DiskDevice& device);

  /// Attach an observability context (before mount()): sync-write and
  /// physical-write latency histograms, a log-queue-depth gauge, and —
  /// when the tracer is enabled — spans/instants for log appends, track
  /// switches, head-prediction waits, log-full stalls, write-back
  /// dispatch/skip, and recovery phases. Propagates to the data-disk
  /// device queues and to the RecoveryManager run at mount.
  void attach_obs(obs::Obs* obs) { attach_obs(obs, ObsScope{}); }
  /// Scoped variant: same instrumentation under `scope`'s metric prefix
  /// and trace lanes (a ShardedDriver attaches each shard here).
  void attach_obs(obs::Obs* obs, ObsScope scope);

  /// Boot the driver: read the disk headers, recover if the previous
  /// epoch crashed, stamp the new epoch, and position the heads. Drives
  /// the simulator through mount_async until complete (the machine is
  /// booting).
  void mount();
  /// The mount, without stepping the simulator: `done` fires from a
  /// device completion once mounted, so a ShardedDriver can run every
  /// shard's mount at once. Under recovery_write_back, phase 3 streams
  /// behind the chain walk: each record goes to the data disks the moment
  /// the walk keeps it, while the log disk is still being read, and the
  /// mount then waits for the last of those writes. Otherwise the pending
  /// records are adopted; when they fill a unit's ring, the unit starts
  /// the epoch in the log-full stall.
  void mount_async(std::function<void()> done);

  /// Clean shutdown: drain every pending write-back, then stamp
  /// crash_var = 1. Drives the simulator until complete.
  void unmount();

  /// Power failure: halt all devices mid-command (torn writes included)
  /// and stop all driver activity. The SectorStores survive; build a new
  /// driver on the same devices (after restart()) and mount() to recover.
  void crash();

  [[nodiscard]] bool mounted() const { return mounted_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t log_disk_count() const { return units_.size(); }

  // ---- direct logging (§6 future work) ----
  /// Append raw client-log bytes as a Trail record (no data-disk home, no
  /// write-back). `cookie` is the byte offset of `bytes` in the client's
  /// logical log (monotonically increasing). The completion fires when the
  /// bytes are durable on a log disk. The record's tracks stay live until
  /// release_direct_before().
  void append_direct(std::span<const std::byte> bytes, std::uint64_t cookie, Completion cb);

  /// The client's checkpoint advanced: direct records whose payload ends
  /// at or before `cookie` are no longer needed; free their log tracks.
  void release_direct_before(std::uint64_t cookie);

  /// Direct-log records found by the last mount's recovery, ascending by
  /// key; payloads carry the client's log bytes (cookie = first entry's
  /// data_lba). The client replays from these.
  [[nodiscard]] const std::vector<RecoveredRecord>& recovered_direct_log() const {
    return recovered_direct_;
  }

  // BlockDriver interface.
  void submit_write(io::BlockAddr addr, std::uint32_t count, std::span<const std::byte> data,
                    Completion cb) override;
  /// This driver's request tracker (null until attach_obs with
  /// request_attribution).
  [[nodiscard]] obs::ReqTracker* req_tracker() { return req_tracker_.get(); }
  void submit_read(io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override;
  void drain(Completion cb) override;

  [[nodiscard]] const TrailStats& stats() const { return stats_; }
  [[nodiscard]] const RecoveryStats& last_recovery() const { return last_recovery_; }
  /// Allocator / predictor of log disk 0 (stats & tests); use the unit
  /// accessors for multi-log-disk setups.
  [[nodiscard]] const TrackAllocator& allocator() const { return *units_[0].allocator; }
  [[nodiscard]] const io::HeadPredictor& predictor() const { return *units_[0].predictor; }
  [[nodiscard]] const TrackAllocator& allocator_of(std::size_t unit) const {
    return *units_.at(unit).allocator;
  }
  [[nodiscard]] const BufferManager& buffers() const { return *buffers_; }
  [[nodiscard]] const TrailConfig& config() const { return config_; }

  /// Pending synchronous writes not yet on a log disk (queue depth).
  [[nodiscard]] std::size_t log_queue_depth() const { return pending_.size(); }

  /// Times the serialization arena had to grow (tests pin the zero-
  /// allocation-per-append property: after warm-up this stops moving).
  [[nodiscard]] std::uint64_t serialize_arena_grows() const { return serialize_arena_.grows(); }

  /// Cross-layer invariant audit (trail::audit, DESIGN.md §9): component
  /// self-audits (staging buffer, per-unit allocators, every platter)
  /// plus the driver-level cross-checks — live records vs allocator
  /// accounting, buffered durable sectors vs the data-disk platters.
  /// `quiescent` means no synchronous write or physical log write is
  /// outstanding (post-mount, post-drain, pre-unmount), enabling the
  /// stricter emptiness and occupancy-vs-platter checks. Always compiled;
  /// with TRAIL_AUDIT defined it also runs automatically at the driver's
  /// quiesce points and throws std::logic_error on any error finding.
  void run_audit(audit::Report& report, bool quiescent = false) const;

 private:
  struct PendingWrite {
    io::BlockAddr addr;
    std::uint32_t count = 0;
    std::vector<std::byte> data;
    Completion cb;
    std::uint32_t logged = 0;     // sectors durable on a log disk
    std::uint32_t in_flight = 0;  // sectors in in-flight physical writes
    bool direct = false;          // direct-log payload (no write-back)
    std::uint64_t cookie = 0;     // direct: byte offset in the client log
    sim::TimePoint submitted{};   // arrival time (sync-latency histogram)
    std::uint64_t req_id = 0;     // attribution context (0 = untracked)
  };
  struct LiveRecord {
    std::uint8_t unit = 0;
    disk::Lba header_lba = 0;
    disk::TrackId track = 0;
    bool direct = false;
    std::uint64_t end_cookie = 0;  // direct: one past the last payload byte
  };
  /// A record being carried by an in-flight physical write.
  struct BuiltRecord {
    RecordHeader header;
    disk::Lba header_lba = 0;
    // (request index in pending_, sector offset in request, sector count)
    struct Part {
      std::size_t request = 0;
      std::uint32_t offset = 0;
      std::uint32_t count = 0;
    };
    std::vector<Part> parts;
  };
  /// Reusable backing store for physical-write serialization images.
  /// Capacity only ever grows, so steady-state appends build the
  /// [header][escaped payload]... image with zero heap allocations; the
  /// grow counter lets tests pin that property.
  class SerializeArena {
   public:
    [[nodiscard]] std::span<std::byte> acquire(std::size_t bytes) {
      if (bytes > buf_.size()) {
        ++grows_;
        buf_.resize(bytes);
      }
      return std::span<std::byte>(buf_.data(), bytes);
    }
    [[nodiscard]] std::uint64_t grows() const { return grows_; }

   private:
    std::vector<std::byte> buf_;
    std::uint64_t grows_ = 0;
  };

  /// One log disk and its driving state.
  struct LogUnit {
    disk::DiskDevice* device = nullptr;
    LogDiskLayout layout;
    disk::SeekModel seek;
    std::unique_ptr<io::HeadPredictor> predictor;
    std::unique_ptr<TrackAllocator> allocator;
    bool busy = false;  // physical write or repositioning in flight
    bool full = false;  // ring exhausted: next track still live
    std::vector<BuiltRecord> inflight;  // records of the in-flight write
    sim::TimePoint busy_since{};        // start of the in-flight operation
    /// Predictor's positioning estimate (δ + rotational wait) for the
    /// in-flight physical write; split out of the service span as
    /// `req.phase.position` when the write completes.
    sim::Duration inflight_position{};
    disk::SectorBuf scratch{};

    LogUnit(disk::DiskDevice& dev)
        : device(&dev), layout(dev.geometry()), seek(dev.profile().seek) {}
  };

  [[nodiscard]] LogUnit* pick_idle_unit();
  void service_log_queue();
  bool service_on_unit(std::uint8_t unit_id);
  void on_physical_write_done(std::uint8_t unit_id, std::uint32_t last_sector);
  void switch_track(std::uint8_t unit_id);
  /// A track may have been freed: retry every stalled unit's track
  /// switch. Not before the mount has positioned the heads, since the
  /// switch aims from the head predictor's reference.
  void retry_stalled_units();
  void on_record_durable(RecordId id);
  void enqueue_writeback(io::DeviceId dev, disk::Lba lba, std::uint32_t count);
  void arm_idle_timer();
  void attach_data_queue_obs(std::size_t index);
  void note_log_queue_depth();
  [[nodiscard]] io::DeviceQueue& data_queue(io::DeviceId dev);
  [[nodiscard]] std::vector<disk::DiskDevice*> log_devices() const {
    std::vector<disk::DiskDevice*> devices;
    devices.reserve(units_.size());
    for (const LogUnit& unit : units_) devices.push_back(unit.device);
    return devices;
  }
  void run_sim_until(const std::function<bool()>& done, const char* what);
  /// The mount's stages, continuation-passing over one shared state
  /// block: read headers -> recover (phases 1-2, phase 3 streaming
  /// behind the walk) -> wait for phase 3 -> adopt -> stamp epoch
  /// headers -> position heads -> done.
  struct MountState;
  void mf_recover(std::shared_ptr<MountState> st);
  /// Phase 3's stream: write back the sectors of `rec` that no younger
  /// record claimed.
  void mf_stream(const std::shared_ptr<MountState>& st, const RecoveredRecord& rec);
  void mf_write_back(std::shared_ptr<MountState> st);
  void mf_adopt(std::shared_ptr<MountState> st);
  void mf_stamp(std::shared_ptr<MountState> st);
  void mf_position(std::shared_ptr<MountState> st);
  /// No synchronous write, physical log write, pinned record or data-disk
  /// command is outstanding (drain() and unmount() wait for this).
  [[nodiscard]] bool quiescent() const;
  /// drain()'s poll: after `delay`, run `done` if quiescent, else poll
  /// again 500 µs later.
  void poll_drain(std::shared_ptr<bool> alive, std::shared_ptr<Completion> done,
                  sim::Duration delay);
  /// TRAIL_AUDIT hook: run_audit(quiescent=true), dump counters into the
  /// attached metrics, throw on errors.
  void quiesce_audit(const char* where) const;
  void adopt_recovered(std::vector<RecoveredRecord> records);
  [[nodiscard]] std::uint32_t oldest_live_ptr_or(std::uint32_t fallback) const;

  sim::Simulator& sim_;
  TrailConfig config_;
  ObsScope scope_;
  std::vector<LogUnit> units_;
  std::uint8_t next_unit_hint_ = 0;  // round-robin start for unit picking
  std::unique_ptr<BufferManager> buffers_;
  std::vector<std::unique_ptr<io::DeviceQueue>> data_queues_;
  std::vector<disk::DiskDevice*> data_disks_;

  bool mounted_ = false;
  bool crashed_ = false;
  std::uint32_t epoch_ = 0;
  std::uint32_t next_seq_ = 1;
  std::uint32_t last_record_ptr_ = kNoPrevRecord;  // prev_sect chain tail

  std::deque<PendingWrite> pending_;
  /// Backing store for the [header][payload]... image of each physical
  /// log write; reused across appends (see serialize_arena_grows()).
  SerializeArena serialize_arena_;

  /// Live (not fully written back) records, keyed by record_key: the
  /// in-memory mirror of the log's active portion; begin() is log_head.
  std::map<std::uint64_t, LiveRecord> live_records_;

  TrailStats stats_;
  /// Write-back ranges enqueued but neither dispatched nor skipped yet.
  /// Together with the stats the invariant
  ///   writebacks == writebacks_dispatched + writebacks_skipped + wb_queued_ranges_
  /// holds at every instant; run_audit asserts it.
  std::uint64_t wb_queued_ranges_ = 0;
  RecoveryStats last_recovery_;
  std::vector<RecoveredRecord> recovered_direct_;
  /// The mount's recovery pipeline. Owned by the driver (not a stack
  /// local) because the async mount returns to the simulator while the
  /// pipeline has reads in flight; kept until the next mount or
  /// destruction so late completions stay valid.
  std::unique_ptr<RecoveryManager> recovery_;
  sim::EventId idle_timer_;

  // Observability (optional; null when unattached). Histogram/gauge
  // handles are cached at attach so the hot path never does name lookups.
  obs::Obs* obs_ = nullptr;
  obs::Histogram* h_sync_write_ = nullptr;   // submit -> ack, ns
  obs::Histogram* h_phys_write_ = nullptr;   // physical log write, ns
  obs::Histogram* h_batch_ = nullptr;        // requests acked per physical write
  obs::Histogram* h_wb_ranges_ = nullptr;    // coalesced ranges per wb command
  obs::Histogram* h_wb_sectors_ = nullptr;   // sectors per wb command
  obs::Gauge* g_log_queue_ = nullptr;        // pending synchronous writes
  /// Request-scoped phase attribution (obs/req.hpp); created by
  /// attach_obs when the scope asks for it.
  std::unique_ptr<obs::ReqTracker> req_tracker_;
  /// Scoped queue-depth counter-lane name, owned by the tracer (which
  /// keeps interned pointers past this driver's lifetime).
  const char* trace_queue_depth_name_ = "trail.log_queue_depth";


  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::core
