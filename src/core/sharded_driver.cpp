#include "core/sharded_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/check.hpp"

namespace trail::core {

ShardedDriver::ShardedDriver(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks,
                             ShardedConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (log_disks.empty() || log_disks.size() > kMaxLogUnits)
    throw std::invalid_argument("ShardedDriver: 1..15 log disks (one per shard) required");
  if (config_.extent_sectors < 1)
    throw std::invalid_argument("ShardedDriver: extent_sectors must be >= 1");
  shards_.reserve(log_disks.size());
  for (std::size_t k = 0; k < log_disks.size(); ++k) {
    if (log_disks[k] == nullptr) throw std::invalid_argument("ShardedDriver: null log disk");
    shards_.push_back(std::make_unique<TrailDriver>(sim_, *log_disks[k], config_.shard));
  }
  routed_sectors_.assign(shards_.size(), 0);
  c_routed_.assign(shards_.size(), nullptr);
}

io::DeviceId ShardedDriver::add_data_disk(disk::DiskDevice& device) {
  if (mounted_) throw std::logic_error("ShardedDriver: add data disks before mount()");
  io::DeviceId id{};
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const io::DeviceId got = shards_[k]->add_data_disk(device);
    if (k == 0)
      id = got;
    else if (got != id)
      throw std::logic_error("ShardedDriver: shards disagree on device ids");
  }
  return id;
}

void ShardedDriver::attach_obs(obs::Obs* obs) {
  if (mounted_) throw std::logic_error("ShardedDriver: attach_obs before mount()");
  obs_ = obs;
  c_routed_.assign(shards_.size(), nullptr);
  if (obs_ == nullptr) {
    g_imbalance_ = nullptr;
    c_split_writes_ = nullptr;
    for (auto& s : shards_) s->attach_obs(nullptr);
    return;
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::uint32_t base =
        obs::kShardTidBase + static_cast<std::uint32_t>(k) * obs::kShardTidStride;
    ObsScope scope;
    scope.metric_prefix = "shard." + std::to_string(k) + ".";
    scope.unit_tid_base = base;
    scope.data_tid_base = base + obs::kDataDiskTidBase;
    scope.driver_tid = base + obs::kShardDriverTidOffset;
    scope.recovery_tid = base + obs::kShardRecoveryTidOffset;
    scope.shard_id = static_cast<std::uint32_t>(k);
    shards_[k]->attach_obs(obs_, std::move(scope));
    c_routed_[k] = &obs_->metrics.counter("shard." + std::to_string(k) + ".routed_sectors");
  }
  g_imbalance_ = &obs_->metrics.gauge("shard.routing_imbalance_pct");
  c_split_writes_ = &obs_->metrics.counter("shard.split_writes");
}

// ---------------------------------------------------------------------------
// Mount / unmount / crash
// ---------------------------------------------------------------------------

void ShardedDriver::mount() {
  if (mounted_) throw std::logic_error("ShardedDriver: already mounted");
  if (crashed_)
    throw std::logic_error("ShardedDriver: driver instance crashed; build a new one");

  // Each shard mounts as a standalone volume. With overlapped_mount every
  // shard starts before the simulator steps, so their recoveries overlap
  // on virtual time (independent log spindles) and the mount costs the
  // max over shards; without it each shard is stepped to completion
  // before the next one starts. Phase 3 writes to the shared data disks,
  // but extent routing keeps the shards' sectors disjoint, so either
  // order writes the same images.
  std::size_t running = 0;
  const auto settle = [&] {
    while (running > 0)
      if (!sim_.step()) throw std::runtime_error("ShardedDriver: mount stalled");
  };
  for (const auto& s : shards_) {
    ++running;
    s->mount_async([&running] { --running; });
    if (!config_.overlapped_mount) settle();
  }
  settle();

  last_recovery_ = ShardedRecoveryStats{};
  for (const auto& s : shards_) {
    const RecoveryStats& st = s->last_recovery();
    last_recovery_.shards.push_back(st);
    // A crashed shard's locate scans at least one track.
    if (st.tracks_scanned > 0) ++last_recovery_.crashed_shards;
    last_recovery_.records_found += st.records_found;
    last_recovery_.records_dropped_torn += st.records_dropped_torn;
  }

  routed_sectors_.assign(shards_.size(), 0);
  routed_total_ = 0;
  split_writes_ = 0;
  mounted_ = true;
#if defined(TRAIL_AUDIT)
  quiesce_audit("mount");
#endif
}

void ShardedDriver::unmount() {
  if (!mounted_) throw std::logic_error("ShardedDriver: not mounted");
  // Each shard drains its own write-back before stamping crash_var = 1.
  for (auto& s : shards_) s->unmount();
  mounted_ = false;
#if defined(TRAIL_AUDIT)
  quiesce_audit("unmount");
#endif
}

void ShardedDriver::crash() {
  crashed_ = true;
  mounted_ = false;
  for (auto& s : shards_) s->crash();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

std::size_t ShardedDriver::shard_of(io::DeviceId dev, disk::Lba lba) const {
  const std::uint64_t extent = lba / config_.extent_sectors;
  // splitmix64 finalizer over (device, extent): cheap, well-mixed, and
  // stable across mounts — routing must be a pure function of the
  // address so recovery-time ownership matches run-time ownership.
  std::uint64_t x = (static_cast<std::uint64_t>(dev.index()) << 48) ^ extent;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

std::vector<ShardedDriver::Chunk> ShardedDriver::route(io::DeviceId dev, disk::Lba lba,
                                                       std::uint32_t count) const {
  std::vector<Chunk> chunks;
  std::uint32_t off = 0;
  while (off < count) {
    const disk::Lba cur = lba + off;
    const disk::Lba extent_end = (cur / config_.extent_sectors + 1) * config_.extent_sectors;
    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(count - off, extent_end - cur));
    const std::size_t k = shard_of(dev, cur);
    if (!chunks.empty() && chunks.back().shard == k)
      chunks.back().count += len;
    else
      chunks.push_back(Chunk{k, off, len});
    off += len;
  }
  return chunks;
}

void ShardedDriver::note_routed(std::size_t k, std::uint32_t sectors) {
  routed_sectors_[k] += sectors;
  routed_total_ += sectors;
  if (c_routed_[k] != nullptr) c_routed_[k]->inc(sectors);
  if (g_imbalance_ != nullptr)
    g_imbalance_->set(static_cast<std::int64_t>(routing_imbalance() * 100.0));
}

double ShardedDriver::routing_imbalance() const {
  if (routed_total_ == 0) return 0.0;
  std::uint64_t max_routed = 0;
  for (const std::uint64_t r : routed_sectors_) max_routed = std::max(max_routed, r);
  const double mean =
      static_cast<double>(routed_total_) / static_cast<double>(routed_sectors_.size());
  return static_cast<double>(max_routed) / mean - 1.0;
}

// ---------------------------------------------------------------------------
// Request paths
// ---------------------------------------------------------------------------

void ShardedDriver::submit_write(io::BlockAddr addr, std::uint32_t count,
                                 std::span<const std::byte> data, Completion cb) {
  if (crashed_) return;
  if (!mounted_) throw std::logic_error("ShardedDriver: not mounted");
  if (count == 0) throw std::invalid_argument("ShardedDriver: zero-sector write");
  if (data.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("ShardedDriver: write data shorter than count sectors");

  const std::vector<Chunk> chunks = route(addr.device, addr.lba, count);
  if (chunks.size() > 1) {
    ++split_writes_;
    if (c_split_writes_ != nullptr) c_split_writes_->inc();
  }
  // All chunks share one countdown; the client ack fires when the last
  // chunk's acknowledgement lands.
  auto remaining = std::make_shared<std::uint32_t>(static_cast<std::uint32_t>(chunks.size()));
  for (const Chunk& c : chunks) {
    note_routed(c.shard, c.count);
    shards_[c.shard]->submit_write(
        io::BlockAddr{addr.device, addr.lba + c.offset}, c.count,
        data.subspan(static_cast<std::size_t>(c.offset) * disk::kSectorSize,
                     static_cast<std::size_t>(c.count) * disk::kSectorSize),
        [remaining, cb] {
          if (--*remaining == 0 && cb) cb();
        });
  }
}

void ShardedDriver::submit_read(io::BlockAddr addr, std::uint32_t count,
                                std::span<std::byte> out, Completion cb) {
  if (crashed_) return;
  if (!mounted_) throw std::logic_error("ShardedDriver: not mounted");
  if (count == 0) throw std::invalid_argument("ShardedDriver: zero-sector read");
  if (out.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("ShardedDriver: read buffer shorter than count sectors");

  const std::vector<Chunk> chunks = route(addr.device, addr.lba, count);
  auto remaining = std::make_shared<std::uint32_t>(static_cast<std::uint32_t>(chunks.size()));
  for (const Chunk& c : chunks) {
    shards_[c.shard]->submit_read(
        io::BlockAddr{addr.device, addr.lba + c.offset}, c.count,
        out.subspan(static_cast<std::size_t>(c.offset) * disk::kSectorSize,
                    static_cast<std::size_t>(c.count) * disk::kSectorSize),
        [remaining, cb] {
          if (--*remaining == 0 && cb) cb();
        });
  }
}

void ShardedDriver::drain(Completion cb) {
  auto remaining = std::make_shared<std::size_t>(shards_.size());
  for (auto& s : shards_) {
    s->drain([this, remaining, cb] {
      if (--*remaining != 0) return;
#if defined(TRAIL_AUDIT)
      quiesce_audit("drain");
#endif
      if (cb) cb();
    });
  }
}

// ---------------------------------------------------------------------------
// Stats & audit
// ---------------------------------------------------------------------------

TrailStats ShardedDriver::combined_stats() const {
  TrailStats total;
  for (const auto& s : shards_) {
    const TrailStats& st = s->stats();
    total.requests_logged += st.requests_logged;
    total.sectors_logged += st.sectors_logged;
    total.physical_log_writes += st.physical_log_writes;
    total.records_written += st.records_written;
    total.track_switches += st.track_switches;
    total.idle_repositions += st.idle_repositions;
    total.log_full_stalls += st.log_full_stalls;
    total.reads += st.reads;
    total.read_buffer_hits += st.read_buffer_hits;
    total.writebacks += st.writebacks;
    total.writeback_sectors += st.writeback_sectors;
    total.writebacks_skipped += st.writebacks_skipped;
    total.writebacks_dispatched += st.writebacks_dispatched;
    total.writeback_commands += st.writeback_commands;
  }
  return total;
}

void ShardedDriver::run_audit(audit::Report& report, bool quiescent) const {
  for (const auto& s : shards_) s->run_audit(report, quiescent);

  // Extent ownership: every buffered (not yet written back) sector lives
  // on the shard that routing assigns its extent to.
  audit::Check& routing = report.check("sharded.routing");
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->buffers().for_each_resident([&](const BufferManager::ResidentInfo& info) {
      const io::DeviceId dev{static_cast<std::uint8_t>(info.dev_index >> 8),
                             static_cast<std::uint8_t>(info.dev_index & 0xFF)};
      routing.require(shard_of(dev, info.lba) == k,
                      "buffered sector resident on a shard that does not own its extent",
                      info.lba);
    });
  }
}

void ShardedDriver::quiesce_audit(const char* where) const {
  audit::Report report;
  run_audit(report, /*quiescent=*/true);
  if (obs_ != nullptr) report.record_to(obs_->metrics);
  if (!report.ok()) {
    std::string msg = std::string("ShardedDriver: invariant audit failed at ") + where + "\n" +
                      report.to_string();
    if (obs_ != nullptr && obs_->flight.size() > 0) {
      msg += '\n';
      msg += obs_->flight.dump_tail(16);
    }
    throw std::logic_error(msg);
  }
}

}  // namespace trail::core
