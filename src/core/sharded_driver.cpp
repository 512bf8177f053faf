#include "core/sharded_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/check.hpp"
#include "core/log_format.hpp"

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
    TrailConfig shard_config = config_.shard;
    shard_config.sequence_source = [this] { return next_seq_++; };
    shard_config.on_records_durable = [this, k](std::uint32_t first, std::uint32_t last) {
      on_shard_durable(k, first, last);
    };
    shards_.push_back(std::make_unique<TrailDriver>(sim_, *log_disks[k], shard_config));
  }
  shard_durable_high_.assign(shards_.size(), 0);
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
  data_disks_.push_back(&device);
  return id;
}

void ShardedDriver::attach_obs(obs::Obs* obs) {
  if (mounted_) throw std::logic_error("ShardedDriver: attach_obs before mount()");
  obs_ = obs;
  c_routed_.assign(shards_.size(), nullptr);
  if (obs_ == nullptr) {
    g_imbalance_ = nullptr;
    c_split_writes_ = c_gated_acks_ = nullptr;
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
  c_gated_acks_ = &obs_->metrics.counter("shard.gated_acks");
}

// ---------------------------------------------------------------------------
// Mount / unmount / crash
// ---------------------------------------------------------------------------

void ShardedDriver::mount() {
  if (mounted_) throw std::logic_error("ShardedDriver: already mounted");
  if (crashed_)
    throw std::logic_error("ShardedDriver: driver instance crashed; build a new one");

  // Each phase fans out over the shards' asynchronous halves. With
  // overlapped_mount every shard starts before the simulator steps, so
  // their recoveries overlap on virtual time (independent log spindles)
  // and a phase costs the max over shards; without it each shard is
  // stepped to completion before the next one starts.
  std::size_t running = 0;
  const auto settle = [&] {
    while (running > 0)
      if (!sim_.step()) throw std::runtime_error("ShardedDriver: mount stalled");
  };

  // Phase A: begin recovery everywhere (locate + rebuild, no write-back)
  // and derive the array-wide mount parameters — the epoch floor that
  // re-aligns every shard onto one common epoch, and the consistency cut
  // (minimum torn key across shards; see the file comment for why
  // nothing at or above it was ever acknowledged).
  std::vector<TrailDriver::MountPrep> preps(shards_.size());
  last_recovery_ = ShardedRecoveryStats{};
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    ++running;
    shards_[k]->mount_begin_async([&preps, &running, k](TrailDriver::MountPrep prep) {
      preps[k] = std::move(prep);
      --running;
    });
    if (!config_.overlapped_mount) settle();
  }
  settle();
  std::uint32_t epoch_floor = 0;
  std::uint64_t cut_before = ~std::uint64_t{0};
  for (const TrailDriver::MountPrep& prep : preps) {
    epoch_floor = std::max(epoch_floor, prep.max_epoch);
    if (prep.crashed) ++last_recovery_.crashed_shards;
    if (prep.stats.records_dropped_torn > 0)
      cut_before = std::min(cut_before, prep.stats.oldest_torn_key);
  }

  // Phase B: finish every shard's mount under the common cut. Write-back
  // targets the shared data disks, but extent routing keeps the shards'
  // runs disjoint, so overlapping them is image-equivalent to the serial
  // order.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    ++running;
    shards_[k]->mount_finish_async(std::move(preps[k]), epoch_floor, cut_before,
                                   [&running] { --running; });
    if (!config_.overlapped_mount) settle();
  }
  settle();

  last_recovery_.cut_before = cut_before;
  for (const auto& s : shards_) {
    const RecoveryStats& st = s->last_recovery();
    last_recovery_.shards.push_back(st);
    last_recovery_.records_found += st.records_found;
    last_recovery_.records_dropped_torn += st.records_dropped_torn;
    last_recovery_.records_cut += st.records_cut;
  }

  next_seq_ = 1;
  watermark_ = 0;
  shard_durable_high_.assign(shards_.size(), 0);
  durable_beyond_.clear();
  gated_.clear();
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
  // Each shard drains its own write-back before stamping crash_var = 1;
  // gated acknowledgements release along the way as the later shards'
  // physical writes complete.
  for (auto& s : shards_) s->unmount();
  mounted_ = false;
#if defined(TRAIL_AUDIT)
  quiesce_audit("unmount");
#endif
}

void ShardedDriver::crash() {
  crashed_ = true;
  mounted_ = false;
  // Held acknowledgements die with the power: their writes were never
  // globally committed and may be cut by the next mount.
  gated_.clear();
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
  // chunk's (possibly gated) acknowledgement lands.
  auto remaining = std::make_shared<std::uint32_t>(static_cast<std::uint32_t>(chunks.size()));
  auto part_done = [remaining, cb = std::move(cb)] {
    if (--*remaining == 0 && cb) cb();
  };
  for (const Chunk& c : chunks) {
    note_routed(c.shard, c.count);
    const std::size_t k = c.shard;
    // Attribution: the array owns each chunk's request context — opened
    // here at array-submit time (so routing/splitting lands in the route
    // phase) and finished only after the watermark gate releases the
    // acknowledgement (so gating cost lands in watermark_gate).
    obs::ReqTracker* tracker = shards_[k]->req_tracker();
    const std::uint64_t req_id =
        tracker != nullptr ? tracker->open(sim_.now(), c.count, /*direct=*/false,
                                           /*external=*/true)
                           : 0;
    shards_[k]->submit_write_attributed(
        io::BlockAddr{addr.device, addr.lba + c.offset}, c.count,
        data.subspan(static_cast<std::size_t>(c.offset) * disk::kSectorSize,
                     static_cast<std::size_t>(c.count) * disk::kSectorSize),
        [this, k, req_id, part_done]() mutable {
          auto finish_ctx = [this, k, req_id] {
            obs::ReqTracker* t = shards_[k]->req_tracker();
            if (t != nullptr && req_id != 0) {
              t->stamp(req_id, obs::ReqPhase::kWatermarkGate, sim_.now());
              t->finish(req_id, sim_.now());
            }
          };
          // The shard's durability hook already ran for the physical
          // write that carried this chunk, so shard_durable_high_[k]
          // covers its records. Release once the global watermark has
          // caught up — i.e. once everything sequenced before it is
          // durable too.
          const std::uint32_t gate = shard_durable_high_[k];
          if (watermark_ >= gate) {
            finish_ctx();
            part_done();
            return;
          }
          if (c_gated_acks_ != nullptr) c_gated_acks_->inc();
          gated_.emplace(gate, [finish_ctx, part_done = std::move(part_done)]() mutable {
            finish_ctx();
            part_done();
          });
        },
        req_id);
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
// Watermark
// ---------------------------------------------------------------------------

void ShardedDriver::on_shard_durable(std::size_t k, std::uint32_t first_seq,
                                     std::uint32_t last_seq) {
  shard_durable_high_[k] = std::max(shard_durable_high_[k], last_seq);
  // Sequences within one physical write are contiguous; across shards
  // they interleave, so track the out-of-order durable set beyond the
  // watermark and advance it over every gap that closes.
  for (std::uint32_t s = first_seq; s <= last_seq; ++s)
    if (s > watermark_) durable_beyond_.insert(s);
  while (!durable_beyond_.empty() && *durable_beyond_.begin() == watermark_ + 1) {
    durable_beyond_.erase(durable_beyond_.begin());
    ++watermark_;
  }
  // Release every acknowledgement whose gate the watermark has reached,
  // in (gate, arrival) order. Callbacks may submit more writes.
  while (!gated_.empty() && gated_.begin()->first <= watermark_) {
    Completion release = std::move(gated_.begin()->second);
    gated_.erase(gated_.begin());
    release();
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

  // Global total order: a record key lives on exactly one shard.
  audit::Check& seq = report.check("sharded.sequence");
  std::map<std::uint64_t, std::size_t> owner;
  for (std::size_t k = 0; k < shards_.size(); ++k)
    for (const std::uint64_t key : shards_[k]->live_record_keys())
      seq.require(owner.emplace(key, k).second,
                  "record key live on two shards (global sequence not unique)");
  if (quiescent && !crashed_) {
    seq.require(durable_beyond_.empty(),
                "durable sequences beyond the watermark at a quiesce point");
    seq.require(watermark_ + 1 == next_seq_,
                "commit watermark behind the drawn sequence counter at a quiesce point");
    seq.require(gated_.empty(), "acknowledgements still gated at a quiesce point");
  }

  // With the gate empty, no request context — the array-owned external
  // ones included — may remain open anywhere (the per-shard audits above
  // only asserted their internally-owned contexts).
  if (quiescent && !crashed_) {
    audit::Check& attr = report.check("req.attribution");
    for (const auto& s : shards_)
      if (s->req_tracker() != nullptr)
        attr.require(s->req_tracker()->open_count() == 0,
                     "request contexts still open across the array at a quiesce point");
  }

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
