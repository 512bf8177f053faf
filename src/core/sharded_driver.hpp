// Sharded multi-log scale-out (§5.1 taken to its conclusion): a
// BlockDriver fronting N independent TrailDriver shards, each with its
// own log disk, head predictor, track allocator and write-back
// scheduler. Where TrailDriver's multi-log mode steers batches from one
// shared log queue onto whichever disk is idle, the ShardedDriver
// partitions the *address space*: a hash of (device, extent) assigns
// every data-disk extent to exactly one shard, so shards accept, batch
// and acknowledge writes fully concurrently and clustered sync-write
// throughput scales near-linearly with the shard count.
//
// Each shard is a whole Trail volume. Extent routing gives every sector
// exactly one owning shard, and the contract is per sector: a write is
// acknowledged once it is on its shard's log disk (§4), and each shard's
// mount recovers its own log by walking that log alone (§3.3). So the
// shards share no sequence, no epoch and no commit order: a write to a
// fast shard may ack before an earlier write to a slow one, as it may
// under any elevator. A request split across shards acks when its last
// chunk does; until then, each of its sectors may read old or new.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/recovery.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "io/block.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace trail::core {

struct ShardedConfig {
  /// Extent granularity in sectors: [lba, lba+count) writes that stay
  /// inside one extent never split across shards. Must be >= 1.
  std::uint32_t extent_sectors = 64;
  /// Overlap every shard's mount on virtual time (each shard owns an
  /// independent log disk), so array recovery cost approaches the max
  /// over shards instead of the sum. Off: shards mount strictly one after
  /// another (the baseline the CI floor measures against).
  bool overlapped_mount = true;
  /// Template for every shard's TrailDriver.
  TrailConfig shard;
};

/// Cross-shard view of the last mount's recovery.
struct ShardedRecoveryStats {
  std::vector<RecoveryStats> shards;   // per-shard phase stats
  std::uint32_t crashed_shards = 0;    // shards that found crash_var != 1
  std::uint32_t records_found = 0;     // sum across shards
  std::uint32_t records_dropped_torn = 0;
};

class ShardedDriver final : public io::BlockDriver {
 public:
  /// One shard per log disk (1..15, each formatted).
  ShardedDriver(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks,
                ShardedConfig config = {});

  /// Register a data disk with every shard; returns the common DeviceId.
  io::DeviceId add_data_disk(disk::DiskDevice& device);

  /// Attach observability (before mount): shard k's full TrailDriver
  /// instrumentation lands under the metric prefix "shard.<k>." and a
  /// private trace-lane block at obs::kShardTidBase + k * kShardTidStride,
  /// plus array-level routing metrics (shard.routing_imbalance_pct,
  /// shard.split_writes, shard.<k>.routed_sectors).
  void attach_obs(obs::Obs* obs);

  /// Mount every shard (TrailDriver::mount_async: recovery, with phase 3
  /// streaming behind each shard's own walk). Drives the simulator until
  /// every shard is mounted.
  void mount();

  /// Clean shutdown: each shard drains its write-back and stamps
  /// crash_var = 1. Drives the simulator until complete.
  void unmount();

  /// Power failure across the whole array: halts every log and data disk
  /// mid-command.
  void crash();

  // BlockDriver. Requests are split at extent boundaries and routed;
  // multi-chunk requests complete when the last chunk does.
  void submit_write(io::BlockAddr addr, std::uint32_t count, std::span<const std::byte> data,
                    Completion cb) override;
  void submit_read(io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override;
  void drain(Completion cb) override;

  [[nodiscard]] bool mounted() const { return mounted_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] TrailDriver& shard(std::size_t k) { return *shards_.at(k); }
  [[nodiscard]] const TrailDriver& shard(std::size_t k) const { return *shards_.at(k); }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }

  /// The shard owning (device, lba)'s extent: a hash of (device, extent),
  /// which spreads any access pattern, sequential scans of one device
  /// included, across all shards.
  [[nodiscard]] std::size_t shard_of(io::DeviceId dev, disk::Lba lba) const;

  [[nodiscard]] const ShardedRecoveryStats& last_recovery() const { return last_recovery_; }

  /// Element-wise sum of every shard's TrailStats.
  [[nodiscard]] TrailStats combined_stats() const;

  /// Payload sectors routed to shard k since mount.
  [[nodiscard]] std::uint64_t routed_sectors(std::size_t k) const {
    return routed_sectors_.at(k);
  }
  /// max-shard / mean-shard routed sectors - 1 (0 = perfectly balanced).
  [[nodiscard]] double routing_imbalance() const;

  /// Cross-layer audit: every shard's full TrailDriver audit plus the
  /// array-level buffered-sector-vs-routing ownership check
  /// ("sharded.routing"). With TRAIL_AUDIT defined it runs automatically
  /// at mount / drain / unmount and throws on any error finding.
  void run_audit(audit::Report& report, bool quiescent = false) const;

 private:
  /// One routed piece of a client request: `count` sectors starting at
  /// sector `offset` of the request, owned by `shard`.
  struct Chunk {
    std::size_t shard = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// Split [lba, lba+count) at extent boundaries and coalesce runs of
  /// consecutive same-shard extents into one chunk per shard run.
  [[nodiscard]] std::vector<Chunk> route(io::DeviceId dev, disk::Lba lba,
                                         std::uint32_t count) const;
  void note_routed(std::size_t k, std::uint32_t sectors);
  void quiesce_audit(const char* where) const;

  sim::Simulator& sim_;
  ShardedConfig config_;
  std::vector<std::unique_ptr<TrailDriver>> shards_;
  bool mounted_ = false;
  bool crashed_ = false;

  ShardedRecoveryStats last_recovery_;
  std::vector<std::uint64_t> routed_sectors_;
  std::uint64_t routed_total_ = 0;
  std::uint64_t split_writes_ = 0;

  obs::Obs* obs_ = nullptr;
  obs::Gauge* g_imbalance_ = nullptr;
  obs::Counter* c_split_writes_ = nullptr;
  std::vector<obs::Counter*> c_routed_;
};

}  // namespace trail::core
