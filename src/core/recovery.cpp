#include "core/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "io/device_queue.hpp"

namespace trail::core {

RecoveryManager::RecoveryManager(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks)
    : sim_(sim) {
  if (log_disks.empty() || log_disks.size() > kMaxLogUnits)
    throw std::invalid_argument("RecoveryManager: 1..15 log disks required");
  for (disk::DiskDevice* device : log_disks) {
    Unit unit;
    unit.device = device;
    // One pass against the layout's replica tracks, which ascend.
    const std::vector<disk::TrackId> reserved =
        LogDiskLayout(device->geometry()).reserved_tracks();
    const disk::TrackId tracks = device->geometry().track_count();
    unit.usable.reserve(tracks);
    auto next_reserved = reserved.begin();
    for (disk::TrackId t = 0; t < tracks; ++t) {
      if (next_reserved != reserved.end() && *next_reserved == t)
        ++next_reserved;
      else
        unit.usable.push_back(t);
    }
    units_.push_back(std::move(unit));
  }
}

// ---------------------------------------------------------------------------
// Locate + rebuild pipeline.
//
// One algorithm serves every pipeline_depth; the depth only sizes windows.
// Reads are submitted through a per-unit C-LOOK DeviceQueue and at most
// `depth` are kept in flight per unit, so the elevator can order whatever
// the window holds:
//   - locate runs all units' machines concurrently, one scan in flight
//     per unit: the header's resume track, then the rotated binary
//     search on core::RingOrder::at_or_after when it is stamped, or the
//     track before it when it is not. Only the sequential scan
//     (ablation) keeps `depth` in flight;
//   - rebuild walks the chain (core::ChainWalk) out of a track cache: a
//     miss fetches the demanded record window plus up to depth-1
//     ring-backward neighbour tracks, which C-LOOK serves as one
//     ascending forward sweep — the fast direction — while the walk
//     decodes records (core::read_record) out of the cache at zero cost.
// The locate *result* (per-unit youngest key) and the rebuilt chain are
// depth-invariant: the anchor, the bisect and the walk read the same
// tracks at every depth.
// ---------------------------------------------------------------------------
struct RecoveryManager::Pipe : std::enable_shared_from_this<RecoveryManager::Pipe> {
  explicit Pipe(RecoveryManager& mgr) : m(mgr) {}

  RecoveryManager& m;
  std::uint32_t target_epoch = 0;
  std::uint32_t oldest_pending_epoch = 0;
  Options opts;
  std::uint32_t depth = 1;
  RecordSink on_record;
  std::function<void(Outcome)> done;
  Outcome outcome;
  bool failed = false;

  std::uint32_t inflight = 0;
  std::uint32_t max_inflight = 0;

  // ---- phase 1 state ----
  sim::TimePoint locate_start{};
  std::optional<obs::ScopedSpan> locate_span;
  struct Loc {
    std::size_t n = 0;           // usable ring size
    std::size_t anchor_idx = 0;  // the resume track's ring index
    std::uint64_t anchor_key = 0;
    std::uint32_t unit_inflight = 0;  // sequential scan window
    // rotated binary search over clockwise offsets from the anchor
    std::size_t lo = 0, hi = 0, mid = 0;
    TrackKey lo_key;
    // sequential scan (ablation)
    std::size_t seq_next = 0;
    TrackKey result;
  };
  std::vector<Loc> loc;
  std::size_t loc_units_done = 0;

  // ---- phase 2 state ----
  sim::TimePoint rebuild_start{};
  std::optional<obs::ScopedSpan> rebuild_span;
  std::optional<ChainWalk> walk;
  std::vector<RecoveredRecord> chain;  // youngest -> oldest

  static constexpr disk::TrackId kNoTrack = static_cast<disk::TrackId>(-1);
  struct TrackBuf {
    bool ready = false;
    disk::Lba base = 0;
    std::uint32_t spt = 0;
    std::shared_ptr<std::vector<std::byte>> data;
  };
  std::map<std::pair<std::uint8_t, disk::TrackId>, TrackBuf> cache;
  std::vector<disk::TrackId> walk_track;  // per unit: track the walk last consumed
  std::uint64_t tracks_streamed = 0;      // tracks fetched by the rebuild streamer

  [[noreturn]] void fail(const char* msg) {
    failed = true;
    throw std::runtime_error(msg);
  }

  // ---- read submission ----
  void issue_read(std::uint8_t u, disk::Lba rlba, std::uint32_t count, std::span<std::byte> out,
                  std::shared_ptr<std::vector<std::byte>> keep, std::function<void()> cb) {
    ++inflight;
    if (inflight > max_inflight) {
      max_inflight = inflight;
      if (m.obs_ != nullptr)
        m.obs_->metrics.gauge(m.metric_prefix_ + "recovery.inflight_reads").set(max_inflight);
    }
    io::PendingIo io;
    io.is_write = false;
    io.lba = rlba;
    io.count = count;
    io.out = out;
    // weak: the queues live for the manager's lifetime, so a shared self
    // here would pin the Pipe forever when a corrupt chain aborts the
    // walk with entries still queued.
    io.on_complete = [weak = weak_from_this(), keep = std::move(keep),
                      cb = std::move(cb)]() mutable {
      const auto self = weak.lock();
      if (!self) return;
      --self->inflight;
      if (self->failed) return;
      cb();
    };
    m.read_queues_[u]->submit(std::move(io));
  }

  void note_scan(disk::TrackId track) {
    ++outcome.stats.tracks_scanned;
    if (m.obs_ != nullptr) {
      m.obs_->metrics.counter(m.metric_prefix_ + "recovery.tracks_scanned").inc();
      if (m.obs_->tracer.enabled())
        m.obs_->tracer.instant_value("recovery.probe", "recovery", track, m.tid_);
    }
  }

  /// Read + parse one full track; hand the newest in-epoch key to `cb`.
  void scan_async(std::uint8_t u, std::size_t usable_index, std::function<void(TrackKey)> cb) {
    const Unit& un = m.units_[u];
    const disk::TrackId track = un.usable[usable_index];
    const disk::Geometry& geom = un.device->geometry();
    const std::uint32_t spt = geom.spt_of_track(track);
    const disk::Lba base = geom.first_lba_of_track(track);
    auto buf =
        std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(spt) * disk::kSectorSize);
    ++loc[u].unit_inflight;
    std::span<std::byte> out(*buf);
    issue_read(u, base, spt, out, buf,
               [this, u, track, base, spt, buf, cb = std::move(cb)] {
                 --loc[u].unit_inflight;
                 note_scan(track);
                 TrackKey best;
                 for (std::uint32_t s = 0; s < spt; ++s) {
                   const std::span<const std::byte> sector(
                       buf->data() + static_cast<std::size_t>(s) * disk::kSectorSize,
                       disk::kSectorSize);
                   const auto hdr = parse_record_header(sector);
                   if (!hdr || hdr->epoch > target_epoch) continue;
                   if (!best.present || record_key(*hdr) > best.key) {
                     best.present = true;
                     best.key = record_key(*hdr);
                     best.unit = u;
                     best.header_lba = base + s;
                   }
                 }
                 cb(best);
               });
  }

  // ---- phase 1: locate ----
  void start_locate() {
    locate_start = m.sim_.now();
    locate_span.emplace(m.obs_ != nullptr ? &m.obs_->tracer : nullptr, "recovery.locate",
                        "recovery", m.tid_);
    for (std::size_t u = 0; u < loc.size(); ++u) {
      const auto unit = static_cast<std::uint8_t>(u);
      if (opts.sequential_locate)
        pump_seq(unit);
      else
        scan_async(unit, loc[u].anchor_idx, [this, unit](TrackKey key) { on_anchor(unit, key); });
    }
  }

  void on_anchor(std::uint8_t u, const TrackKey& key) {
    Loc& L = loc[u];
    if (!key.present) {
      // The crashed epoch wrote nothing on its resume track, so the newest
      // track is the usable track before it, or the ring is empty
      // (DESIGN.md §5, invariant 9).
      scan_async(u, (L.anchor_idx + L.n - 1) % L.n,
                 [this, u](TrackKey newest) { finish_unit(u, newest); });
      return;
    }
    L.anchor_key = key.key;
    L.lo = 0;
    L.lo_key = key;
    L.hi = L.n;
    step_outer(u);
  }

  // Rotated binary search for the last clockwise offset from the anchor
  // where RingOrder::at_or_after holds, driven by completions.
  void step_outer(std::uint8_t u) {
    Loc& L = loc[u];
    if (L.hi - L.lo <= 1) {
      finish_unit(u, L.lo_key);
      return;
    }
    L.mid = L.lo + (L.hi - L.lo) / 2;
    scan_async(u, (L.anchor_idx + L.mid) % L.n,
               [this, u](TrackKey key) { on_outer(u, key); });
  }

  void on_outer(std::uint8_t u, const TrackKey& key) {
    Loc& L = loc[u];
    if (RingOrder::at_or_after(key.stamp(), L.anchor_key)) {
      L.lo = L.mid;
      L.lo_key = key;
    } else {
      L.hi = L.mid;
    }
    step_outer(u);
  }

  void pump_seq(std::uint8_t u) {
    Loc& L = loc[u];
    while (L.seq_next < L.n && L.unit_inflight < depth)
      scan_async(u, L.seq_next++, [this, u](TrackKey key) { on_seq(u, key); });
  }

  void on_seq(std::uint8_t u, const TrackKey& key) {
    Loc& L = loc[u];
    if (key.present && (!L.result.present || key.key > L.result.key)) L.result = key;
    if (L.seq_next == L.n && L.unit_inflight == 0) {
      finish_unit(u, L.result);
      return;
    }
    pump_seq(u);
  }

  void finish_unit(std::uint8_t u, const TrackKey& key) {
    loc[u].result = key;
    if (++loc_units_done == loc.size()) finish_locate();
  }

  void finish_locate() {
    outcome.stats.locate_time = m.sim_.now() - locate_start;
    locate_span->finish();
    TrackKey youngest;
    for (const Loc& L : loc)
      if (L.result.present && (!youngest.present || L.result.key > youngest.key))
        youngest = L.result;
    if (!youngest.present || youngest.key < record_key(oldest_pending_epoch, 0)) {
      complete();  // nothing logged, or all of it already written back
      return;
    }
    start_rebuild(youngest);
  }

  // ---- phase 2: rebuild ----
  void start_rebuild(const TrackKey& youngest) {
    rebuild_start = m.sim_.now();
    rebuild_span.emplace(m.obs_ != nullptr ? &m.obs_->tracer : nullptr, "recovery.rebuild",
                         "recovery", m.tid_);
    walk.emplace(encode_log_ptr(youngest.unit, static_cast<std::uint32_t>(youngest.header_lba)),
                 oldest_pending_epoch);
    walk_track.assign(m.units_.size(), kNoTrack);
    resume_walk();
  }

  /// One chain-walk step: hand the record at (unit, lba) to the walk and
  /// keep it when the walk says it is pending.
  void step_record(std::uint8_t unit, disk::Lba lba, disk::TrackId track,
                   const std::optional<RecordRead>& rec) {
    using V = ChainWalk::Verdict;
    const V verdict = walk->step(rec ? &rec->header : nullptr, rec && rec->intact);
    if (verdict == V::kNotRecord)
      fail("recovery: prev_sect chain reached an invalid record header");
    if (verdict == V::kKeyOrder) fail("recovery: record keys not decreasing along chain");
    // Only the final (unacknowledged) physical write can be torn.
    if (verdict == V::kTornLive) fail("recovery: torn record below an intact one");
    if (verdict == V::kTornTail) ++outcome.stats.records_dropped_torn;
    if (verdict != V::kLive) return;
    RecoveredRecord& out = chain.emplace_back(RecoveredRecord{
        rec->header, unit, lba, track, {rec->payload.begin(), rec->payload.end()}});
    // Restore the original first byte of every payload sector.
    for (std::uint32_t i = 0; i < out.header.batch_size; ++i)
      unescape_payload_sector(
          std::span<std::byte>(out.payload).subspan(static_cast<std::size_t>(i) * disk::kSectorSize,
                                                    disk::kSectorSize),
          out.header.entries[i].first_data_byte);
    if (on_record) on_record(out);
  }

  // The walk decodes records out of the track cache; a miss fetches the
  // demanded record window plus a ring-backward prefetch batch that
  // C-LOOK serves as one ascending forward sweep.
  void resume_walk() {
    for (;;) {
      if (walk->done()) {
        if (inflight == 0) finish_rebuild();  // else: prefetch stragglers drain first
        return;
      }
      const std::uint8_t unit = log_ptr_unit(walk->next());
      if (unit >= m.units_.size()) fail("recovery: prev_sect names an unknown log disk");
      const disk::Lba lba = log_ptr_lba(walk->next());
      const disk::Geometry& geom = m.units_[unit].device->geometry();
      const disk::TrackId track = geom.track_of_lba(lba);
      const auto key = std::make_pair(unit, track);
      auto it = cache.find(key);
      if (it == cache.end()) {
        demand_fetch(unit, track, lba);
        return;
      }
      if (!it->second.ready) return;  // fetch in flight; its completion resumes us
      if (lba < it->second.base || lba >= it->second.base + it->second.spt) {
        // Outside this entry's coverage: demanded windows are anchored at
        // the record that missed, and track reuse after freeing makes
        // in-track placement non-monotone, so a revisit can land on
        // either side. Refetch with a window anchored here.
        cache.erase(it);
        demand_fetch(unit, track, lba);
        return;
      }
      // The walk rarely returns to a consumed track (see above), so the
      // previous one is almost always dead; evicting it bounds the cache.
      if (walk_track[unit] != kNoTrack && walk_track[unit] != track)
        cache.erase(std::make_pair(unit, walk_track[unit]));
      walk_track[unit] = track;
      const TrackBuf& tb = it->second;
      const auto rec = read_record(std::span<const std::byte>(*tb.data).subspan(
          static_cast<std::size_t>(lba - tb.base) * disk::kSectorSize));
      if (rec && rec->payload.empty() &&
          tb.base + tb.spt < geom.first_lba_of_track(track) + geom.spt_of_track(track)) {
        // The payload runs past a window anchored at an earlier record,
        // not past the track: refetch with a window anchored here.
        cache.erase(it);
        demand_fetch(unit, track, lba);
        return;
      }
      step_record(unit, lba, track, rec);
    }
  }

  void demand_fetch(std::uint8_t u, disk::TrackId track, disk::Lba lba) {
    const Unit& un = m.units_[u];
    const disk::Geometry& geom = un.device->geometry();
    // Trail stamps records at rotationally chosen offsets, so there is no
    // anchored range cheaper than the header window that is still
    // guaranteed to hold the demanded record: read [record, record +
    // payload bound), clamped to the track (read_record's span).
    const disk::Lba tbase = geom.first_lba_of_track(track);
    const std::uint32_t tspt = geom.spt_of_track(track);
    const auto window = static_cast<std::uint32_t>(
        std::min<disk::Lba>(1 + kMaxTrailBatch, tbase + tspt - lba));
    // Ring-backward prefetch of *full* older tracks pays one transfer-
    // rate sweep to avoid a rotational wait per record — worth it only
    // when tracks actually hold several records. Gate it on the observed
    // density so a one-record-per-track log pays one window per record.
    const std::uint64_t records_seen = chain.size() + outcome.stats.records_dropped_torn;
    const bool prefetch = records_seen >= 2 * tracks_streamed;
    {
      TrackBuf tb;
      tb.base = lba;
      tb.spt = window;
      tb.data = std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(window) *
                                                         disk::kSectorSize);
      const auto [it, inserted] = cache.emplace(std::make_pair(u, track), std::move(tb));
      ++tracks_streamed;
      TrackBuf& ref = it->second;
      (void)inserted;  // caller erased any stale entry
      std::span<std::byte> out(*ref.data);
      issue_read(u, lba, window, out, ref.data, [this, u, track, window] {
        if (m.obs_ != nullptr) {
          m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_commands").inc();
          m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_sectors").inc(window);
        }
        const auto ct = cache.find(std::make_pair(u, track));
        if (ct != cache.end()) ct->second.ready = true;
        resume_walk();
      });
    }
    if (!prefetch) return;
    std::vector<disk::TrackId> batch;
    const auto pos = std::lower_bound(un.usable.begin(), un.usable.end(), track);
    if (pos == un.usable.end() || *pos != track) return;  // defensive
    std::size_t back = static_cast<std::size_t>(pos - un.usable.begin());
    const std::size_t n = un.usable.size();
    for (std::uint32_t issued = 1; issued < depth && issued < n; ++issued) {
      back = (back + n - 1) % n;
      if (cache.find(std::make_pair(u, un.usable[back])) == cache.end())
        batch.push_back(un.usable[back]);
    }
    // Ascending physical order, adjacent tracks fused into one command:
    // the sweep crosses track boundaries on the skew and streams at
    // transfer rate instead of re-reaching sector 0 on every track.
    std::sort(batch.begin(), batch.end());
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j] == batch[j - 1] + 1) ++j;
      fetch_run(u, std::vector<disk::TrackId>(batch.begin() + static_cast<std::ptrdiff_t>(i),
                                              batch.begin() + static_cast<std::ptrdiff_t>(j)));
      i = j;
    }
  }

  /// One read command covering a physically contiguous ascending run of
  /// full tracks; its completion slices the image into per-track cache
  /// entries.
  void fetch_run(std::uint8_t u, std::vector<disk::TrackId> tracks) {
    const disk::Geometry& geom = m.units_[u].device->geometry();
    std::uint32_t total = 0;
    for (const disk::TrackId t : tracks) {
      TrackBuf tb;
      tb.base = geom.first_lba_of_track(t);
      tb.spt = geom.spt_of_track(t);
      tb.data = std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(tb.spt) *
                                                         disk::kSectorSize);
      cache.emplace(std::make_pair(u, t), std::move(tb));
      total += geom.spt_of_track(t);
    }
    tracks_streamed += tracks.size();
    const disk::Lba base = geom.first_lba_of_track(tracks.front());
    auto image = std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(total) *
                                                          disk::kSectorSize);
    std::span<std::byte> out(*image);
    issue_read(u, base, total, out, image,
               [this, u, tracks = std::move(tracks), image, total] {
                 if (m.obs_ != nullptr) {
                   m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_commands").inc();
                   m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_sectors")
                       .inc(total);
                 }
                 std::size_t off = 0;
                 for (const disk::TrackId t : tracks) {
                   const auto ct = cache.find(std::make_pair(u, t));
                   if (ct != cache.end()) {
                     std::memcpy(ct->second.data->data(), image->data() + off,
                                 ct->second.data->size());
                     ct->second.ready = true;
                   }
                   off += static_cast<std::size_t>(
                              m.units_[u].device->geometry().spt_of_track(t)) *
                          disk::kSectorSize;
                 }
                 resume_walk();
               });
  }

  void finish_rebuild() {
    std::reverse(chain.begin(), chain.end());  // ascending key
    outcome.stats.records_found = static_cast<std::uint32_t>(chain.size());
    outcome.stats.rebuild_time = m.sim_.now() - rebuild_start;
    rebuild_span->finish();
    outcome.pending = std::move(chain);
    if (m.obs_ != nullptr) {
      m.obs_->metrics.counter(m.metric_prefix_ + "recovery.records_found")
          .inc(outcome.stats.records_found);
      // Leave a flight-recorder trail of what was rebuilt: one summary per
      // recovered record (id = sequence, shard = log unit), flagged
      // kFlagRecovered so a post-recovery dump separates replay from new
      // traffic.
      for (const RecoveredRecord& rec : outcome.pending) {
        obs::FlightRecord fr;
        fr.id = rec.header.sequence_id;
        fr.shard = rec.log_unit;
        fr.sectors = rec.header.batch_size;
        fr.flags = obs::FlightRecord::kFlagRecovered;
        fr.submit_ns = m.sim_.now().ns();
        m.obs_->flight.push(fr);
      }
    }
    complete();
  }

  void complete() {
    auto d = std::move(done);
    Outcome out = std::move(outcome);
    m.pipe_.reset();  // the caller's shared_ptr keeps us alive through d()
    d(std::move(out));
  }
};

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

// The pipeline references the manager back; if the manager dies with reads
// still in flight, the orphaned completions (which keep the state block
// alive via shared_ptr) must become no-ops.
RecoveryManager::~RecoveryManager() {
  if (pipe_) pipe_->failed = true;
}

void RecoveryManager::start(const std::vector<LogDiskHeader>& headers, const Options& options,
                            RecordSink on_record, std::function<void(Outcome)> done) {
  pipe_ = std::make_shared<Pipe>(*this);
  Pipe& p = *pipe_;
  p.loc.resize(units_.size());
  // Units disagree after a crash mid-stamp: take the most lenient bound.
  p.oldest_pending_epoch = ~std::uint32_t{0};
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const LogDiskHeader& header = headers.at(u);
    p.target_epoch = std::max(p.target_epoch, header.epoch);
    p.oldest_pending_epoch = std::min(p.oldest_pending_epoch, oldest_pending_epoch(header));
    // Locate starts on the track the crashed epoch's writer started on.
    const std::vector<disk::TrackId>& usable = units_[u].usable;
    const auto it = std::lower_bound(usable.begin(), usable.end(), header.resume_track);
    if (it == usable.end() || *it != header.resume_track)
      throw std::runtime_error("recovery: resume track is not a usable track");
    p.loc[u].n = usable.size();
    p.loc[u].anchor_idx = static_cast<std::size_t>(it - usable.begin());
  }
  p.opts = options;
  p.depth = std::max<std::uint32_t>(1, options.pipeline_depth);
  p.on_record = std::move(on_record);
  p.done = std::move(done);
  // Recreate the read queues per start: a previous aborted recovery may
  // have left dead entries (whose weak Pipe references no longer lock).
  read_queues_.clear();
  for (Unit& unit : units_)
    read_queues_.push_back(
        std::make_unique<io::DeviceQueue>(*unit.device, io::make_clook_scheduler()));
  if (obs_ != nullptr)
    obs_->metrics.gauge(metric_prefix_ + "recovery.pipeline_depth").set(p.depth);
  p.start_locate();
}

}  // namespace trail::core
