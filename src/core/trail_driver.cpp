#include "core/trail_driver.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/check.hpp"
#include "io/scheduler.hpp"

namespace trail::core {

namespace {
constexpr std::uint8_t kDataDiskMajor = 3;
/// CPU cost charged for a read served entirely from the staging buffer.
constexpr sim::Duration kBufferReadDelay = sim::micros(5);
}  // namespace

std::string TrailStats::to_json() const {
  std::string s = "{";
  const auto field = [&s](const char* name, std::uint64_t v) {
    if (s.size() > 1) s += ',';
    s += '"';
    s += name;
    s += "\":";
    s += std::to_string(v);
  };
  field("requests_logged", requests_logged);
  field("sectors_logged", sectors_logged);
  field("physical_log_writes", physical_log_writes);
  field("records_written", records_written);
  field("track_switches", track_switches);
  field("idle_repositions", idle_repositions);
  field("log_full_stalls", log_full_stalls);
  field("reads", reads);
  field("read_buffer_hits", read_buffer_hits);
  field("writebacks", writebacks);
  field("writeback_sectors", writeback_sectors);
  field("writebacks_skipped", writebacks_skipped);
  field("writebacks_dispatched", writebacks_dispatched);
  field("writeback_commands", writeback_commands);
  s += '}';
  return s;
}

TrailDriver::TrailDriver(sim::Simulator& sim, disk::DiskDevice& log_disk, TrailConfig config)
    : TrailDriver(sim, std::vector<disk::DiskDevice*>{&log_disk}, config) {}

TrailDriver::TrailDriver(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks,
                         TrailConfig config)
    : sim_(sim), config_(config) {
  if (config_.track_utilization_threshold < 0.0 || config_.track_utilization_threshold > 1.0)
    throw std::invalid_argument("TrailDriver: utilization threshold must be in [0,1]");
  if (log_disks.empty() || log_disks.size() > kMaxLogUnits)
    throw std::invalid_argument("TrailDriver: 1..15 log disks required");
  if (config_.max_writeback_ranges < 1)
    throw std::invalid_argument("TrailDriver: max_writeback_ranges must be >= 1");
  for (disk::DiskDevice* device : log_disks) {
    if (device == nullptr) throw std::invalid_argument("TrailDriver: null log disk");
    if (!is_trail_log_disk(*device))
      throw std::invalid_argument(
          "TrailDriver: log disk is not formatted (run format_log_disk)");
    LogUnit unit(*device);
    unit.predictor = std::make_unique<io::HeadPredictor>(device->geometry(),
                                                         device->profile().rotation_time());
    unit.allocator =
        std::make_unique<TrackAllocator>(device->geometry(), unit.layout.reserved_tracks());
    units_.push_back(std::move(unit));
  }
  if (config_.delta == sim::Duration{0})
    config_.delta = units_[0].device->profile().command_overhead;
  for (LogUnit& unit : units_) unit.predictor->set_delta(config_.delta);

  buffers_ = std::make_unique<BufferManager>([this](RecordId id) { on_record_durable(id); });
}

TrailDriver::~TrailDriver() {
  *alive_ = false;
  if (idle_timer_.valid()) sim_.cancel(idle_timer_);
}

io::DeviceId TrailDriver::add_data_disk(disk::DiskDevice& device) {
  if (mounted_) throw std::logic_error("TrailDriver: add data disks before mount()");
  // Reads drain first, by predicted positioning time; write-backs are
  // CSCAN-ordered and coalesce in-queue (§4.2–§4.3).
  data_queues_.push_back(
      std::make_unique<io::DeviceQueue>(device, io::make_writeback_scheduler()));
  data_disks_.push_back(&device);
  const auto minor = static_cast<std::uint8_t>(data_queues_.size() - 1);
  if (obs_ != nullptr) attach_data_queue_obs(minor);
  return io::DeviceId{kDataDiskMajor, minor};
}

void TrailDriver::attach_data_queue_obs(std::size_t index) {
  const auto tid = scope_.data_tid_base + static_cast<std::uint32_t>(index);
  const std::string label = scope_.metric_prefix + "data" + std::to_string(index);
  obs_->tracer.set_track_name(tid, label);
  data_queues_[index]->attach_obs(obs_, tid,
                                  scope_.metric_prefix + "io.queue_depth.data" +
                                      std::to_string(index),
                                  scope_.metric_prefix + "io.service_ns.data" +
                                      std::to_string(index));
}

void TrailDriver::attach_obs(obs::Obs* obs, ObsScope scope) {
  if (mounted_) throw std::logic_error("TrailDriver: attach_obs before mount()");
  obs_ = obs;
  scope_ = std::move(scope);
  if (obs_ == nullptr) {
    h_sync_write_ = h_phys_write_ = h_batch_ = nullptr;
    h_wb_ranges_ = h_wb_sectors_ = nullptr;
    g_log_queue_ = nullptr;
    req_tracker_.reset();
    for (auto& q : data_queues_) q->attach_obs(nullptr, 0, "");
    return;
  }
  const std::string& p = scope_.metric_prefix;
  h_sync_write_ = &obs_->metrics.histogram(p + "trail.sync_write_ns");
  h_phys_write_ = &obs_->metrics.histogram(p + "trail.physical_write_ns");
  h_batch_ = &obs_->metrics.histogram(p + "trail.batch_requests");
  h_wb_ranges_ = &obs_->metrics.histogram(p + "wb.batch_ranges");
  h_wb_sectors_ = &obs_->metrics.histogram(p + "wb.batch_sectors");
  g_log_queue_ = &obs_->metrics.gauge(p + "trail.log_queue_depth");
  trace_queue_depth_name_ = obs_->tracer.own_name(p + "trail.log_queue_depth");
  if (scope_.request_attribution) {
    obs::ReqTracker::Options opts;
    opts.metric_prefix = p;
    opts.shard = scope_.shard_id;
    req_tracker_ = std::make_unique<obs::ReqTracker>(*obs_, std::move(opts));
  } else {
    req_tracker_.reset();
  }
  obs_->tracer.set_track_name(scope_.driver_tid, p + "driver");
  obs_->tracer.set_track_name(scope_.recovery_tid, p + "recovery");
  for (std::size_t u = 0; u < units_.size(); ++u)
    obs_->tracer.set_track_name(scope_.unit_tid_base + static_cast<std::uint32_t>(u),
                                p + "log" + std::to_string(u));
  for (std::size_t i = 0; i < data_queues_.size(); ++i) attach_data_queue_obs(i);
}

io::DeviceQueue& TrailDriver::data_queue(io::DeviceId dev) {
  if (dev.major() != kDataDiskMajor || dev.minor() >= data_queues_.size())
    throw std::out_of_range("TrailDriver: unknown data device");
  return *data_queues_[dev.minor()];
}

void TrailDriver::run_sim_until(const std::function<bool()>& done, const char* what) {
  while (!done()) {
    if (!sim_.step()) throw std::runtime_error(std::string("TrailDriver: stalled during ") + what);
  }
}

std::uint32_t TrailDriver::oldest_live_ptr_or(std::uint32_t fallback) const {
  if (live_records_.empty()) return fallback;
  const LiveRecord& oldest = live_records_.begin()->second;
  return encode_log_ptr(oldest.unit, static_cast<std::uint32_t>(oldest.header_lba));
}

// ---------------------------------------------------------------------------
// Mount / unmount / crash
// ---------------------------------------------------------------------------

void TrailDriver::mount() {
  bool mounted = false;
  mount_async([&] { mounted = true; });
  run_sim_until([&] { return mounted; }, "mount");
}

/// One mount's state, continuation-passing from stage to stage.
struct TrailDriver::MountState {
  std::function<void()> done;
  std::vector<LogDiskHeader> headers;  // one per log unit
  std::size_t headers_left = 0;
  bool bad_header = false;
  bool crashed = false;         // some unit's header had crash_var != 1
  std::uint32_t max_epoch = 0;  // newest epoch across header replicas
  std::vector<RecoveredRecord> pending;  // ascending key order
  std::set<std::pair<io::DeviceId, disk::Lba>> written_back;  // claimed by phase 3
  std::size_t wb_outstanding = 0;  // phase-3 runs not yet on a platter
  bool wb_waiting = false;         // the walk is over; the mount waits for phase 3
  sim::TimePoint wb_start{};
  std::optional<obs::ScopedSpan> wb_span;
  bool adopted = false;  // stamped as crash_var 2: earlier epochs stay pending
  std::size_t stamp_idx = 0;
  std::size_t pos_idx = 0;
};

void TrailDriver::mount_async(std::function<void()> done) {
  if (mounted_) throw std::logic_error("TrailDriver: already mounted");
  if (crashed_) throw std::logic_error("TrailDriver: driver instance crashed; build a new one");
  if (data_queues_.empty()) throw std::logic_error("TrailDriver: no data disks registered");

  auto st = std::make_shared<MountState>();
  st->done = std::move(done);
  st->headers.resize(units_.size());
  st->headers_left = units_.size();
  // Every unit's header read goes out at once (independent spindles,
  // timed, through the normal command path).
  for (std::size_t u = 0; u < units_.size(); ++u) {
    read_disk_header(*units_[u].device,
                     [this, st, u, alive = alive_](std::optional<LogDiskHeader> header) {
                       if (!*alive) return;
                       if (!header) {
                         st->bad_header = true;
                       } else {
                         st->headers[u] = *header;
                         st->crashed |= header->crash_var != 1;
                         st->max_epoch = std::max(st->max_epoch, header->epoch);
                       }
                       if (--st->headers_left > 0) return;
                       if (st->bad_header)
                         throw std::runtime_error(
                             "TrailDriver: no valid log disk header replica");
                       mf_recover(st);
                     });
  }
}

void TrailDriver::mf_recover(std::shared_ptr<MountState> st) {
  last_recovery_ = RecoveryStats{};
  if (!st->crashed) {
    mf_adopt(std::move(st));
    return;
  }
  // The previous epoch did not unmount cleanly: locate + rebuild (§3.3),
  // with phase 3 streaming behind the walk.
  RecoveryManager::Options opts;
  opts.sequential_locate = config_.recovery_sequential_locate;
  opts.pipeline_depth = config_.recovery_pipeline_depth;
  RecoveryManager::RecordSink on_record;
  if (config_.recovery_write_back)
    on_record = [this, st, alive = alive_](const RecoveredRecord& rec) {
      if (*alive) mf_stream(st, rec);
    };
  recovery_ = std::make_unique<RecoveryManager>(sim_, log_devices());
  recovery_->attach_obs(obs_, scope_.metric_prefix, scope_.recovery_tid);
  recovery_->start(st->headers, opts, std::move(on_record),
                   [this, st, alive = alive_](RecoveryManager::Outcome outcome) {
                     if (!*alive) return;
                     last_recovery_ = outcome.stats;
                     st->pending = std::move(outcome.pending);
                     mf_write_back(st);
                   });
}

// Recovery phase 3 (§3.3) under the write-back policy, one record at a
// time, youngest first: each (device, LBA) goes to its data disk the
// first time the stream meets it, so every sector is written once, with
// its newest content. Inside a record a higher entry index is the later
// write. Nothing reads or writes through the driver until the mount
// finishes, so the runs go straight to the data-disk queues and need none
// of the buffer manager's services. Direct-log records have no data-disk
// home.
void TrailDriver::mf_stream(const std::shared_ptr<MountState>& st, const RecoveredRecord& rec) {
  if (rec.header.entries[0].data_major == kDirectLogMajor) return;
  std::map<std::pair<io::DeviceId, disk::Lba>, const std::byte*> fresh;
  for (std::uint32_t i = rec.header.batch_size; i-- > 0;) {
    const RecordEntry& e = rec.header.entries[i];
    const std::pair<io::DeviceId, disk::Lba> sector{io::DeviceId(e.data_major, e.data_minor),
                                                    e.data_lba};
    if (st->written_back.insert(sector).second)
      fresh.emplace(sector, rec.payload.data() + static_cast<std::size_t>(i) * disk::kSectorSize);
  }
  // Contiguous runs, each a single-range priority-1 batch so the
  // write-back scheduler coalesces and CSCAN-orders the sweep.
  for (auto it = fresh.begin(); it != fresh.end();) {
    const auto [dev, lba] = it->first;
    auto image = std::make_shared<std::vector<std::byte>>();
    for (disk::Lba next = lba; it != fresh.end() && it->first == std::make_pair(dev, next);
         ++it, ++next)
      image->insert(image->end(), it->second, it->second + disk::kSectorSize);
    const auto count = static_cast<std::uint32_t>(image->size() / disk::kSectorSize);
    io::PendingIo io;
    io.is_write = true;
    io.lba = lba;
    io.count = count;
    io.priority = 1;
    io.merge_cap = config_.max_writeback_ranges;
    io::PendingIo::WbRange range;
    range.lba = lba;
    range.count = count;
    range.fill = [image](std::span<std::byte> out) {
      std::memcpy(out.data(), image->data(), image->size());
    };
    range.done = [this, st, alive = alive_] {
      if (!*alive || --st->wb_outstanding > 0 || !st->wb_waiting) return;
      mf_write_back(st);
    };
    io.ranges.push_back(std::move(range));
    ++st->wb_outstanding;
    data_queue(dev).submit(std::move(io));
  }
}

/// The mount's wait for phase 3 after the walk, re-entered by the last
/// streamed run to land.
void TrailDriver::mf_write_back(std::shared_ptr<MountState> st) {
  if (!st->wb_waiting) {
    if (st->pending.empty() || !config_.recovery_write_back) {
      mf_adopt(std::move(st));
      return;
    }
    last_recovery_.sectors_written_back = st->written_back.size();
    st->wb_start = sim_.now();
    st->wb_span.emplace(obs_ != nullptr ? &obs_->tracer : nullptr, "recovery.writeback",
                        "recovery", scope_.recovery_tid);
    st->wb_waiting = true;
    if (st->wb_outstanding > 0) return;
  }
  last_recovery_.writeback_time = sim_.now() - st->wb_start;
  st->wb_span->finish();
  mf_adopt(std::move(st));
}

void TrailDriver::mf_adopt(std::shared_ptr<MountState> st) {
  // Per unit, the track of its youngest pending record: the ring
  // continues after it.
  std::vector<std::optional<disk::TrackId>> resume(units_.size());
  if (!st->pending.empty()) {
    // Chain the prev pointer after the youngest pending record.
    const RecoveredRecord& youngest = st->pending.back();
    last_record_ptr_ =
        encode_log_ptr(youngest.log_unit, static_cast<std::uint32_t>(youngest.header_lba));
    // Direct-log records are always adopted (the client replays from
    // them and later releases); block records follow the policy.
    std::vector<RecoveredRecord> adopt;
    for (RecoveredRecord& rec : st->pending) {
      resume[rec.log_unit] = rec.track;
      const bool direct = rec.header.entries[0].data_major == kDirectLogMajor;
      if (direct) {
        recovered_direct_.push_back(rec);  // keep a copy for the client
        adopt.push_back(std::move(rec));
      } else if (!config_.recovery_write_back) {
        adopt.push_back(std::move(rec));
      }
    }
    st->adopted = !adopt.empty();
    if (st->adopted) adopt_recovered(std::move(adopt));
  }

  epoch_ = st->max_epoch + 1;
  next_seq_ = 1;

  // Position each unit's allocator tail so stamping continues around its
  // ring. When the track after the youngest pending record is still
  // pinned by adopted records, the ring is full: the tail stays on the
  // youngest record's track and the unit starts the epoch in the log-full
  // stall, retried once the heads are positioned. A unit with no pending
  // records resumes exactly ON the stored track — skipping ahead would
  // leave a stale-keyed track between epochs and break core::RingOrder.
  for (std::size_t u = 0; u < units_.size(); ++u) {
    LogUnit& unit = units_[u];
    if (resume[u]) {
      unit.full = !unit.allocator->set_tail_after(*resume[u]);
    } else if (!unit.allocator->is_reserved(st->headers[u].resume_track) &&
               st->headers[u].resume_track < unit.device->geometry().track_count()) {
      unit.allocator->set_tail(st->headers[u].resume_track);
    }
  }
  mf_stamp(std::move(st));
}

// Stamp the new epoch as mounted on every unit: crash_var = 2 when this
// mount adopted records of earlier epochs, else 0 (nothing older pending).
void TrailDriver::mf_stamp(std::shared_ptr<MountState> st) {
  if (st->stamp_idx == units_.size()) {
    mf_position(std::move(st));
    return;
  }
  LogUnit& unit = units_[st->stamp_idx++];
  const LogDiskHeader header{epoch_, st->adopted ? 2u : 0u, unit.allocator->current()};
  write_disk_headers(*unit.device, header,
                     [this, st = std::move(st), alive = alive_]() mutable {
                       if (!*alive) return;
                       mf_stamp(std::move(st));
                     });
}

void TrailDriver::mf_position(std::shared_ptr<MountState> st) {
  if (st->pos_idx == units_.size()) {
    mounted_ = true;
    arm_idle_timer();
    retry_stalled_units();
#if defined(TRAIL_AUDIT)
    quiesce_audit("mount");
#endif
    auto done = std::move(st->done);
    done();
    return;
  }
  const std::size_t u = st->pos_idx++;
  LogUnit& unit = units_[u];
  const disk::TrackId track = unit.allocator->current();
  const disk::Lba lba = unit.device->geometry().first_lba_of_track(track);
  unit.device->read(lba, 1, unit.scratch,
                    [this, st = std::move(st), u, track, alive = alive_]() mutable {
                      if (!*alive) return;
                      units_[u].predictor->set_reference(sim_.now(), track, 0);
                      mf_position(std::move(st));
                    });
}

void TrailDriver::run_audit(audit::Report& report, bool quiescent) const {
  buffers_->audit(report);
  for (const LogUnit& u : units_) {
    u.allocator->audit(report);
    u.device->store().audit(report);
  }
  for (const disk::DiskDevice* d : data_disks_) d->store().audit(report);

  audit::Check& records = report.check("driver.records");
  audit::Check& xbuf = report.check("driver.buffer_vs_store");

  // Live records: every entry names a real unit/track, its header is on
  // the platter, and block records are exactly the staging buffer's
  // pending set (direct records never enter the buffer).
  std::size_t block_live = 0;
  std::map<std::pair<std::uint8_t, disk::TrackId>, std::uint32_t> per_track;
  for (const auto& [key, rec] : live_records_) {
    if (!records.require(rec.unit < units_.size(), "live record on an unknown log unit"))
      continue;
    const LogUnit& u = units_[rec.unit];
    records.require(!u.allocator->is_reserved(rec.track), "live record on a reserved track",
                    rec.header_lba);
    records.require(u.device->geometry().track_of_lba(rec.header_lba) == rec.track,
                    "live record's header is not on its accounted track", rec.header_lba);
    records.require(u.device->store().is_written(rec.header_lba),
                    "live record's header sector never hit the platter", rec.header_lba);
    if (rec.direct) {
      records.require(rec.end_cookie > 0, "direct record without an end cookie",
                      rec.header_lba);
    } else {
      ++block_live;
      records.require(!buffers_->record_settled(key),
                      "block record live but settled in the staging buffer", rec.header_lba);
    }
    ++per_track[{rec.unit, rec.track}];
  }
  records.require(block_live == buffers_->pending_records(),
                  "staging-buffer pending-record count disagrees with the live-record map");

  // Request attribution (obs/req.hpp): the per-phase histogram mass must
  // equal the end-to-end histogram mass at every instant (phases are
  // buffered per-request and recorded atomically at finish), and no
  // finished request may have had stamps that fail to partition its
  // life. Quiescent adds: no request context left open.
  if (req_tracker_ != nullptr) {
    audit::Check& attr = report.check("req.attribution");
    attr.require(req_tracker_->mismatches() == 0,
                 "request phase stamps failed to partition the end-to-end latency");
    attr.require(req_tracker_->phase_ns_total() == req_tracker_->total_ns_total(),
                 "req.phase.* histogram mass != req.total_ns histogram mass");
    if (quiescent)
      attr.require(req_tracker_->open_count() == 0,
                   "request contexts still open at a quiesce point");
  }

  // Write-back accounting: every enqueued range is eventually either
  // dispatched to a data disk or skipped, exactly once; ranges still in
  // the device queues make up the difference. Holds at every instant, not
  // just quiescence (mount's audit runs with adopted write-backs queued).
  records.require(stats_.writebacks == stats_.writebacks_dispatched +
                                           stats_.writebacks_skipped + wb_queued_ranges_,
                  "write-back ranges enqueued != dispatched + skipped + still queued");
  // Each device command carries at least one range, and a command's ranges
  // settle (dispatched) only at its completion — in-flight ones still
  // count as queued, hence the second term.
  records.require(stats_.writeback_commands <=
                      stats_.writebacks_dispatched + wb_queued_ranges_,
                  "more write-back device commands than ranges to carry them");

  // Staging buffer vs the data-disk platters: a sector with a durable
  // version must have been written to its data disk.
  buffers_->for_each_resident([&](const BufferManager::ResidentInfo& info) {
    const auto major = static_cast<std::uint8_t>(info.dev_index >> 8);
    const auto minor = static_cast<std::uint8_t>(info.dev_index & 0xFF);
    if (!xbuf.require(major == kDataDiskMajor && minor < data_disks_.size(),
                      "resident sector for an unknown data device", info.lba))
      return;
    const disk::DiskDevice& dev = *data_disks_[minor];
    if (!xbuf.require(info.lba < dev.geometry().total_sectors(),
                      "resident sector beyond the end of its data disk", info.lba))
      return;
    if (info.durable_version > 0)
      xbuf.require(dev.store().is_written(info.lba),
                   "sector marked durable but never written to the data disk", info.lba);
    else
      xbuf.pass();
  });

  if (!quiescent) return;

  audit::Check& quiesce = report.check("driver.quiesce");
  quiesce.require(pending_.empty(), "synchronous writes still queued at a quiesce point");
  for (const LogUnit& u : units_)
    quiesce.require(u.inflight.empty(),
                    "physical log write still in flight at a quiesce point");

  // Allocator live-record accounting vs the driver's record map (valid
  // only with no physical write between occupy() and record adoption).
  audit::Check& xalloc = report.check("driver.alloc_records");
  for (const auto& [ut, count] : per_track) {
    const LogUnit& u = units_[ut.first];
    xalloc.require(u.allocator->live_records_on(ut.second) == count,
                   "allocator live-record count disagrees with the driver's record map",
                   u.device->geometry().first_lba_of_track(ut.second));
  }

  // Tail-track occupancy vs the platter: with nothing in flight, every
  // sector the allocator holds occupied on the appending track was
  // physically written.
  audit::Check& occ = report.check("driver.occupancy");
  for (const LogUnit& u : units_) {
    const TrackAllocator& alloc = *u.allocator;
    const disk::TrackId tail = alloc.current();
    const disk::Lba base = u.device->geometry().first_lba_of_track(tail);
    const std::uint32_t spt = alloc.current_spt();
    std::vector<bool> free_sector(spt, false);
    for (std::uint32_t s = 0; s < spt;) {
      const auto run = alloc.free_run_from(s);
      if (!run) break;
      for (std::uint32_t i = 0; i < run->length; ++i) free_sector[run->first_sector + i] = true;
      s = run->first_sector + run->length;
    }
    for (std::uint32_t s = 0; s < spt; ++s) {
      if (free_sector[s])
        occ.pass();
      else
        occ.require(u.device->store().is_written(base + s),
                    "occupied log sector never hit the platter", base + s);
    }
  }
}

void TrailDriver::quiesce_audit(const char* where) const {
  audit::Report report;
  run_audit(report, /*quiescent=*/true);
  if (obs_ != nullptr) report.record_to(obs_->metrics);
  if (!report.ok()) {
    std::string msg = std::string("TrailDriver: invariant audit failed at ") + where + "\n" +
                      report.to_string();
    // Post-mortem context: the last requests the flight recorder saw.
    if (obs_ != nullptr && obs_->flight.size() > 0) {
      msg += '\n';
      msg += obs_->flight.dump_tail(16);
    }
    throw std::logic_error(msg);
  }
}

bool TrailDriver::quiescent() const {
  if (!pending_.empty() || buffers_->pending_records() != 0) return false;
  for (const LogUnit& unit : units_)
    if (unit.busy) return false;
  for (const auto& q : data_queues_)
    if (!q->idle()) return false;
  return true;
}

void TrailDriver::unmount() {
  if (!mounted_) throw std::logic_error("TrailDriver: not mounted");
  run_sim_until([this] { return quiescent(); }, "unmount drain");
#if defined(TRAIL_AUDIT)
  quiesce_audit("unmount");
#endif

  mounted_ = false;
  if (idle_timer_.valid()) {
    sim_.cancel(idle_timer_);
    idle_timer_ = sim::EventId{};
  }
  for (LogUnit& unit : units_) {
    bool stamped = false;
    write_disk_headers(*unit.device, LogDiskHeader{epoch_, 1, unit.allocator->current()},
                       [&] { stamped = true; });
    run_sim_until([&] { return stamped; }, "unmount header write");
  }
}

void TrailDriver::crash() {
  crashed_ = true;
  mounted_ = false;
  *alive_ = false;
  // In-flight requests never complete; their attribution contexts go
  // with them (completions that still fire hit the unknown-id path).
  if (req_tracker_ != nullptr) req_tracker_->abandon_all();
  if (idle_timer_.valid()) {
    sim_.cancel(idle_timer_);
    idle_timer_ = sim::EventId{};
  }
  for (LogUnit& unit : units_) unit.device->crash_halt();
  for (disk::DiskDevice* d : data_disks_) d->crash_halt();
}

void TrailDriver::adopt_recovered(std::vector<RecoveredRecord> records) {
  // Records arrive in ascending key order. Re-create the live in-memory
  // state exactly as it was after their log writes completed, so the
  // normal write-back machinery drains them in the background (Fig. 4b's
  // "resume immediately after the second stage").
  for (const RecoveredRecord& rec : records) {
    const LogUnit& unit = units_.at(rec.log_unit);
    unit.allocator->adopt_record(
        rec.track,
        static_cast<std::uint32_t>(rec.header_lba -
                                   unit.device->geometry().first_lba_of_track(rec.track)),
        1 + rec.header.batch_size);
    const std::uint64_t key = record_key(rec.header);
    const bool direct = rec.header.entries[0].data_major == kDirectLogMajor;
    LiveRecord live{rec.log_unit, rec.header_lba, rec.track, direct, 0};
    if (direct) {
      live.end_cookie = rec.header.entries.back().data_lba + disk::kSectorSize;
      live_records_[key] = live;
      continue;  // no write-back: the client releases it explicitly
    }
    live_records_[key] = live;
    // Register contiguous per-device runs and queue their write-backs.
    std::uint32_t i = 0;
    while (i < rec.header.batch_size) {
      const RecordEntry& e0 = rec.header.entries[i];
      std::uint32_t j = i + 1;
      while (j < rec.header.batch_size) {
        const RecordEntry& e = rec.header.entries[j];
        if (e.data_major != e0.data_major || e.data_minor != e0.data_minor ||
            e.data_lba != e0.data_lba + (j - i))
          break;
        ++j;
      }
      const io::DeviceId dev{e0.data_major, e0.data_minor};
      const std::span<const std::byte> run(
          rec.payload.data() + static_cast<std::size_t>(i) * disk::kSectorSize,
          static_cast<std::size_t>(j - i) * disk::kSectorSize);
      buffers_->register_write(key, dev, e0.data_lba, run);
      buffers_->pin_range(dev, e0.data_lba, j - i);
      enqueue_writeback(dev, e0.data_lba, j - i);
      i = j;
    }
  }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void TrailDriver::submit_write(io::BlockAddr addr, std::uint32_t count,
                               std::span<const std::byte> data, Completion cb) {
  if (crashed_) return;
  if (!mounted_) throw std::logic_error("TrailDriver: not mounted");
  if (count == 0) throw std::invalid_argument("TrailDriver: zero-sector write");
  if (data.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("TrailDriver: write data shorter than count sectors");
  (void)data_queue(addr.device);  // validate device
  PendingWrite req;
  req.addr = addr;
  req.count = count;
  req.data.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(count) * disk::kSectorSize);
  req.cb = std::move(cb);
  req.submitted = sim_.now();
  if (req_tracker_ != nullptr) req.req_id = req_tracker_->open(sim_.now(), count, /*direct=*/false);
  pending_.push_back(std::move(req));
  note_log_queue_depth();
  service_log_queue();
}

void TrailDriver::append_direct(std::span<const std::byte> bytes, std::uint64_t cookie,
                                Completion cb) {
  if (crashed_) return;
  if (!mounted_) throw std::logic_error("TrailDriver: not mounted");
  if (bytes.empty()) throw std::invalid_argument("TrailDriver: empty direct append");
  PendingWrite req;
  req.direct = true;
  req.cookie = cookie;
  req.count = static_cast<std::uint32_t>((bytes.size() + disk::kSectorSize - 1) /
                                         disk::kSectorSize);
  req.data.assign(bytes.begin(), bytes.end());
  req.data.resize(static_cast<std::size_t>(req.count) * disk::kSectorSize);  // zero pad
  req.cb = std::move(cb);
  req.submitted = sim_.now();
  if (req_tracker_ != nullptr)
    req.req_id = req_tracker_->open(sim_.now(), req.count, /*direct=*/true);
  pending_.push_back(std::move(req));
  note_log_queue_depth();
  service_log_queue();
}

void TrailDriver::note_log_queue_depth() {
  if (g_log_queue_ == nullptr) return;
  const auto depth = static_cast<std::int64_t>(pending_.size());
  g_log_queue_->set(depth);
  if (obs_->tracer.enabled())
    obs_->tracer.counter(trace_queue_depth_name_, "log", depth, scope_.driver_tid);
}

void TrailDriver::release_direct_before(std::uint64_t cookie) {
  bool any = false;
  for (auto it = live_records_.begin(); it != live_records_.end();) {
    if (it->second.direct && it->second.end_cookie <= cookie) {
      units_.at(it->second.unit).allocator->release_record(it->second.track);
      it = live_records_.erase(it);
      any = true;
    } else {
      ++it;
    }
  }
  if (!any) return;
  retry_stalled_units();
  if (!pending_.empty()) service_log_queue();
}

TrailDriver::LogUnit* TrailDriver::pick_idle_unit() {
  // Round-robin from the unit after the last used one so a repositioning
  // disk is naturally skipped in favour of an idle sibling (§5.1).
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const auto idx = static_cast<std::uint8_t>((next_unit_hint_ + i) % units_.size());
    LogUnit& unit = units_[idx];
    if (!unit.busy && !unit.full) {
      next_unit_hint_ = static_cast<std::uint8_t>((idx + 1) % units_.size());
      return &unit;
    }
  }
  return nullptr;
}

void TrailDriver::service_log_queue() {
  if (!mounted_ || crashed_) return;
  // Keep steering batches at idle units until the queue or the units run
  // out. (One batch per call per unit; each unit becomes busy.)
  while (!pending_.empty()) {
    // Any request with unlogged sectors left?
    bool work = false;
    for (const PendingWrite& r : pending_)
      if (r.logged + r.in_flight < r.count) {
        work = true;
        break;
      }
    if (!work) return;
    LogUnit* unit = pick_idle_unit();
    if (unit == nullptr) return;
    const auto unit_id = static_cast<std::uint8_t>(unit - units_.data());
    if (!service_on_unit(unit_id)) return;
  }
}

bool TrailDriver::service_on_unit(std::uint8_t unit_id) {
  LogUnit& unit = units_[unit_id];
  const disk::Geometry& geom = unit.device->geometry();
  const disk::TrackId track = unit.allocator->current();
  const std::uint32_t predicted = unit.predictor->predict_sector(track, sim_.now());
  auto run = unit.allocator->free_run_from(predicted);
  if (!run || run->length < 2) {
    // The head's landing point leaves no room before the end of the
    // track. Fall back to "the next closest free sector on the current
    // track" (§3.1) — i.e. wait for the platter to come around — rather
    // than skipping the track: a visited-but-unstamped track would leave
    // stale record keys inside the live arc and break the monotonicity
    // the recovery binary search depends on.
    run = unit.allocator->free_run_from(0);
    if (!run || run->length < 2) {
      switch_track(unit_id);
      return true;  // unit now busy repositioning; caller may try others
    }
    if (obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.instant("log.predict_wait", "log", scope_.unit_tid_base + unit_id);
  }

  // ---- Build as many records as queue + free run allow ----
  const disk::Lba base = geom.first_lba_of_track(track);
  std::uint32_t cap = run->length;
  std::uint32_t pos = run->first_sector;
  const std::uint32_t first_pos = pos;
  std::uint32_t requests_started = 0;
  const std::uint32_t max_req = config_.max_requests_per_physical;

  unit.inflight.clear();
  std::size_t qi = 0;

  while (cap >= 2) {
    // Skip requests already fully placed.
    while (qi < pending_.size() &&
           pending_[qi].logged + pending_[qi].in_flight == pending_[qi].count)
      ++qi;
    if (qi >= pending_.size()) break;
    if (max_req != 0 && requests_started >= max_req && pending_[qi].in_flight == 0) break;

    BuiltRecord rec;
    rec.header_lba = base + pos;
    rec.header.epoch = epoch_;
    rec.header.prev_sect = last_record_ptr_;
    const std::uint32_t self_ptr =
        encode_log_ptr(unit_id, static_cast<std::uint32_t>(rec.header_lba));
    last_record_ptr_ = self_ptr;
    // log_head: oldest live record, else the first record of this batch,
    // else this record itself.
    const std::uint32_t batch_head =
        !unit.inflight.empty()
            ? encode_log_ptr(unit_id, static_cast<std::uint32_t>(unit.inflight.front().header_lba))
            : self_ptr;
    rec.header.log_head = oldest_live_ptr_or(batch_head);
    ++pos;
    --cap;

    std::uint32_t payload = 0;
    bool rec_direct = false;  // meaningful once payload > 0
    const disk::Lba payload_lba = base + pos;
    while (qi < pending_.size() && payload < kMaxTrailBatch && cap > 0) {
      PendingWrite& r = pending_[qi];
      const std::uint32_t remaining = r.count - r.logged - r.in_flight;
      if (remaining == 0) {
        ++qi;
        continue;
      }
      // A record carries either block writes or direct-log payload, never
      // both (their lifecycles differ: write-back vs explicit release).
      if (payload > 0 && r.direct != rec_direct) break;
      if (max_req != 0 && requests_started >= max_req && r.in_flight == 0) break;
      const std::uint32_t take = std::min({remaining, kMaxTrailBatch - payload, cap});
      if (r.in_flight == 0 && r.logged == 0) ++requests_started;
      if (payload == 0) rec_direct = r.direct;
      const std::uint32_t req_off = r.logged + r.in_flight;
      rec.parts.push_back(BuiltRecord::Part{qi, req_off, take});
      for (std::uint32_t s = 0; s < take; ++s) {
        RecordEntry e;
        e.log_lba = static_cast<std::uint32_t>(payload_lba + payload + s);
        if (r.direct) {
          e.data_major = kDirectLogMajor;
          e.data_minor = 0;
          e.data_lba = static_cast<std::uint32_t>(
              r.cookie + static_cast<std::uint64_t>(req_off + s) * disk::kSectorSize);
        } else {
          e.data_lba = static_cast<std::uint32_t>(r.addr.lba + req_off + s);
          e.data_major = r.addr.device.major();
          e.data_minor = r.addr.device.minor();
        }
        rec.header.entries.push_back(e);
      }
      r.in_flight += take;
      payload += take;
      cap -= take;
    }
    if (payload == 0) {
      // Nothing fit after the header (request cap hit mid-build). No
      // sequence id was consumed: ids are assigned after the build loop.
      --pos;
      ++cap;
      last_record_ptr_ = rec.header.prev_sect;
      break;
    }
    rec.header.batch_size = payload;
    pos += payload;
    unit.inflight.push_back(std::move(rec));
  }

  if (unit.inflight.empty()) return false;  // nothing serviceable right now

  // Sequence ids are drawn only once the batch is final, so a discarded
  // empty record never consumes one.
  for (BuiltRecord& rec : unit.inflight) rec.header.sequence_id = next_seq_++;

  // ---- Serialize: [hdr][escaped payload]... contiguous from first_pos ----
  // The image is built in the driver-owned arena (no per-append heap
  // allocation) and every payload byte is touched once: copied in, then
  // escaped+checksummed in a single streaming pass.
  const std::uint32_t total = pos - first_pos;
  const std::span<std::byte> image =
      serialize_arena_.acquire(static_cast<std::size_t>(total) * disk::kSectorSize);
  std::size_t off = 0;
  for (BuiltRecord& rec : unit.inflight) {
    const std::size_t header_off = off;
    off += disk::kSectorSize;
    const std::size_t payload_off = off;
    for (const BuiltRecord::Part& part : rec.parts) {
      const PendingWrite& r = pending_[part.request];
      std::memcpy(image.data() + off,
                  r.data.data() + static_cast<std::size_t>(part.offset) * disk::kSectorSize,
                  static_cast<std::size_t>(part.count) * disk::kSectorSize);
      off += static_cast<std::size_t>(part.count) * disk::kSectorSize;
    }
    rec.header.payload_crc = escape_payload_image(
        image.subspan(payload_off,
                      static_cast<std::size_t>(rec.header.batch_size) * disk::kSectorSize),
        rec.header.entries);
    serialize_record_header(rec.header, image.subspan(header_off, disk::kSectorSize));
  }

  unit.allocator->occupy(first_pos, total, static_cast<std::uint32_t>(unit.inflight.size()));
  unit.busy = true;
  unit.busy_since = sim_.now();
  if (req_tracker_ != nullptr) {
    // This dispatch ends the queue phase for every request whose last
    // sector rides on this physical write; the write's service span is
    // later split into position + transfer using the predictor's own
    // estimate for the landing sector chosen above.
    unit.inflight_position = unit.predictor->position_time(track, first_pos, sim_.now());
    std::size_t stamped = ~std::size_t{0};  // part.request indices are non-decreasing
    for (const BuiltRecord& rec : unit.inflight) {
      for (const BuiltRecord::Part& part : rec.parts) {
        if (part.request == stamped) continue;
        const PendingWrite& r = pending_[part.request];
        if (r.req_id != 0 && r.logged + r.in_flight == r.count) {
          req_tracker_->stamp(r.req_id, obs::ReqPhase::kQueue, sim_.now());
          stamped = part.request;
        }
      }
    }
  }
  const std::uint32_t last_sector = pos - 1;
  auto alive = alive_;
  unit.device->write(base + first_pos, total, image, [this, alive, unit_id, last_sector] {
    if (!*alive) return;
    on_physical_write_done(unit_id, last_sector);
  });
  return true;
}

void TrailDriver::on_physical_write_done(std::uint8_t unit_id, std::uint32_t last_sector) {
  LogUnit& unit = units_[unit_id];
  const disk::TrackId track = unit.allocator->current();
  unit.predictor->set_reference(sim_.now(), track, last_sector);
  ++stats_.physical_log_writes;
  stats_.records_written += unit.inflight.size();
  if (obs_ != nullptr) {
    const sim::Duration span = sim_.now() - unit.busy_since;
    h_phys_write_->record(span);
    if (obs_->tracer.enabled())
      obs_->tracer.complete("log.append", "log", unit.busy_since, span,
                            scope_.unit_tid_base + unit_id);
  }

  // Adopt the records as live and pin their payloads; advance per-request
  // progress for exactly the sectors this write carried.
  std::vector<Completion> acks;
  std::int64_t acked = 0;
  for (const BuiltRecord& rec : unit.inflight) {
    const std::uint64_t key = record_key(rec.header);
    const bool rec_direct = rec.header.entries[0].data_major == kDirectLogMajor;
    LiveRecord live{unit_id, rec.header_lba, track, rec_direct, 0};
    if (rec_direct)
      live.end_cookie = rec.header.entries.back().data_lba + disk::kSectorSize;
    live_records_[key] = live;
    for (const BuiltRecord::Part& part : rec.parts) {
      PendingWrite& r = pending_[part.request];
      if (!r.direct) {
        buffers_->register_write(
            key, r.addr.device, r.addr.lba + part.offset,
            std::span<const std::byte>(
                r.data.data() + static_cast<std::size_t>(part.offset) * disk::kSectorSize,
                static_cast<std::size_t>(part.count) * disk::kSectorSize));
        // Cover-pin each part NOW: for requests split across physical
        // writes, a superseding writer could otherwise settle and unpin
        // these sectors before the full-range write-back is enqueued.
        buffers_->pin_range(r.addr.device, r.addr.lba + part.offset, part.count);
      }
      stats_.sectors_logged += part.count;
      r.logged += part.count;
      r.in_flight -= part.count;
      if (r.logged == r.count) {
        ++stats_.requests_logged;
        ++acked;
        if (h_sync_write_ != nullptr) h_sync_write_->record(sim_.now() - r.submitted);
        if (req_tracker_ != nullptr && r.req_id != 0) {
          req_tracker_->stamp_service(r.req_id, unit.inflight_position, sim_.now());
          req_tracker_->finish(r.req_id, sim_.now());
        }
        if (!r.direct) enqueue_writeback(r.addr.device, r.addr.lba, r.count);
        if (r.cb) acks.push_back(std::move(r.cb));
      }
    }
  }
  if (h_batch_ != nullptr) h_batch_->record(acked);
  while (!pending_.empty() && pending_.front().logged == pending_.front().count)
    pending_.pop_front();
  note_log_queue_depth();
  unit.inflight.clear();

  // Acknowledge the synchronous writes (this is the low-latency return of
  // §4.1; callbacks may immediately submit more writes).
  for (Completion& cb : acks) cb();

  if (crashed_) return;
  if (unit.allocator->current_utilization() >= config_.track_utilization_threshold) {
    switch_track(unit_id);
  } else {
    unit.busy = false;
  }
  service_log_queue();
}

void TrailDriver::switch_track(std::uint8_t unit_id) {
  LogUnit& unit = units_[unit_id];
  const auto next = unit.allocator->advance();
  if (!next) {
    // Every other track of this disk still carries live records: its ring
    // is full (§4.4). Stall this unit until a write-back frees the next
    // track (siblings keep serving).
    unit.full = true;
    unit.busy = false;
    ++stats_.log_full_stalls;
    if (obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.instant("log.full_stall", "log", scope_.unit_tid_base + unit_id);
    return;
  }
  ++stats_.track_switches;
  unit.busy = true;
  unit.busy_since = sim_.now();

  // Aim the repositioning read at the sector of the next track that will
  // be closest to the head once the switch completes — estimated from
  // published drive characteristics only (spec-sheet seek numbers + the
  // calibrated δ), never from the device model's internals.
  const disk::Geometry& geom = unit.device->geometry();
  const disk::TrackId cur = unit.predictor->reference_track();
  const sim::Duration move = unit.seek.reposition_time(
      geom.cylinder_of_track(cur), geom.surface_of_track(cur), geom.cylinder_of_track(*next),
      geom.surface_of_track(*next));
  const sim::TimePoint arrival = sim_.now() + config_.delta + move;
  const std::uint32_t spt = geom.spt_of_track(*next);
  const std::uint32_t target =
      (geom.sector_at_angle(*next, unit.predictor->angle_at(arrival)) + 2) % spt;

  auto alive = alive_;
  unit.device->read(geom.first_lba_of_track(*next) + target, 1, unit.scratch,
                    [this, alive, unit_id, next = *next, target] {
                      if (!*alive) return;
                      LogUnit& u = units_[unit_id];
                      u.predictor->set_reference(sim_.now(), next, target);
                      u.busy = false;
                      if (obs_ != nullptr && obs_->tracer.enabled())
                        obs_->tracer.complete("log.track_switch", "log", u.busy_since,
                                              sim_.now() - u.busy_since,
                                              scope_.unit_tid_base + unit_id);
                      service_log_queue();
                    });
}

void TrailDriver::on_record_durable(RecordId id) {
  auto it = live_records_.find(id);
  if (it == live_records_.end())
    throw std::logic_error("TrailDriver: durable notification for unknown record");
  const LiveRecord rec = it->second;
  live_records_.erase(it);
  units_.at(rec.unit).allocator->release_record(rec.track);
  retry_stalled_units();
  if (!pending_.empty()) service_log_queue();
}

void TrailDriver::retry_stalled_units() {
  if (!mounted_) return;
  for (std::uint8_t u = 0; u < units_.size(); ++u) {
    if (!units_[u].full) continue;
    units_[u].full = false;
    switch_track(u);
  }
}

void TrailDriver::enqueue_writeback(io::DeviceId dev, disk::Lba lba, std::uint32_t count) {
  // The range's sectors are already cover-pinned (at registration). The
  // range rides a batched PendingIo: adjacent/overlapping queued ranges
  // coalesce into one CSCAN-ordered device command, and exactly one of
  // the closures below — skipped() or done() — fires for this range,
  // releasing exactly one pin per sector.
  ++stats_.writebacks;
  ++wb_queued_ranges_;
  if (obs_ != nullptr && obs_->tracer.enabled())
    obs_->tracer.instant_value("wb.enqueue", "wb", count, scope_.driver_tid);

  io::PendingIo io;
  io.is_write = true;
  io.lba = lba;
  io.count = count;
  io.priority = 1;  // below reads (§4.3)
  io.merge_cap = config_.max_writeback_ranges;
  auto alive = alive_;
  io.on_dispatch = [this, alive](std::uint32_t nranges, std::uint32_t sectors) {
    if (!*alive) return;
    ++stats_.writeback_commands;
    if (h_wb_ranges_ != nullptr) h_wb_ranges_->record(nranges);
    if (h_wb_sectors_ != nullptr) h_wb_sectors_->record(sectors);
    if (obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.instant_value("wb.dispatch", "wb", nranges, scope_.driver_tid);
  };

  io::PendingIo::WbRange range;
  range.lba = lba;
  range.count = count;
  // A newer overlapping write-back already put content at least this new
  // on the platter (§4.2's skip/cancel), evaluated per constituent range
  // so a settled sub-range drops out of a merged command.
  range.settled = [this, alive, dev, lba, count] {
    return !*alive || buffers_->range_settled(dev, lba, count);
  };
  range.skipped = [this, alive, dev, lba, count] {
    if (!*alive) return;
    buffers_->unpin_range(dev, lba, count);
    ++stats_.writebacks_skipped;
    --wb_queued_ranges_;
    if (obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.instant_value("wb.skip", "wb", count, scope_.driver_tid);
  };
  auto versions = std::make_shared<std::vector<std::uint64_t>>(count);
  range.fill = [this, alive, dev, lba, count, versions](std::span<std::byte> out) {
    if (!*alive) return;
    buffers_->snapshot_into(dev, lba, count, out, *versions);
  };
  range.done = [this, alive, dev, lba, count, versions] {
    if (!*alive) return;
    stats_.writeback_sectors += count;
    ++stats_.writebacks_dispatched;
    --wb_queued_ranges_;
    buffers_->mark_durable(dev, lba, *versions);
    buffers_->unpin_range(dev, lba, count);
  };
  io.ranges.push_back(std::move(range));
  data_queue(dev).submit(std::move(io));
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void TrailDriver::submit_read(io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                              Completion cb) {
  if (crashed_) return;
  if (!mounted_) throw std::logic_error("TrailDriver: not mounted");
  if (count == 0) throw std::invalid_argument("TrailDriver: zero-sector read");
  if (out.size() < static_cast<std::size_t>(count) * disk::kSectorSize)
    throw std::invalid_argument("TrailDriver: read buffer shorter than count sectors");
  ++stats_.reads;
  if (buffers_->covers(addr.device, addr.lba, count)) {
    ++stats_.read_buffer_hits;
    buffers_->overlay(addr.device, addr.lba, count, out);
    auto alive = alive_;
    sim_.schedule(kBufferReadDelay, [alive, cb = std::move(cb)] {
      if (*alive && cb) cb();
    });
    return;
  }
  io::PendingIo io;
  io.is_write = false;
  io.lba = addr.lba;
  io.count = count;
  io.out = out;
  io.priority = 0;  // reads above write-backs (§4.3)
  auto alive = alive_;
  io.on_complete = [this, alive, addr, count, out, cb = std::move(cb)] {
    if (!*alive) return;
    // Pinned sectors are newer than the data disk: overlay them.
    buffers_->overlay(addr.device, addr.lba, count, out);
    if (cb) cb();
  };
  data_queue(addr.device).submit(std::move(io));
}

// ---------------------------------------------------------------------------
// Drain & idle repositioning
// ---------------------------------------------------------------------------

void TrailDriver::drain(Completion cb) {
  poll_drain(alive_, std::make_shared<Completion>(std::move(cb)), sim::Duration{0});
}

void TrailDriver::poll_drain(std::shared_ptr<bool> alive, std::shared_ptr<Completion> done,
                             sim::Duration delay) {
  // Each poll event holds the two handles, not a copy of the completion;
  // the last poll's event drops them, so nothing refers to itself.
  sim_.schedule(delay, [this, alive = std::move(alive), done = std::move(done)]() mutable {
    if (!*alive) return;
    if (!quiescent()) {
      poll_drain(std::move(alive), std::move(done), sim::micros(500));
      return;
    }
#if defined(TRAIL_AUDIT)
    quiesce_audit("drain");
#endif
    if (*done) (*done)();
  });
}

void TrailDriver::arm_idle_timer() {
  if (config_.idle_reposition_period <= sim::Duration{0}) return;
  auto alive = alive_;
  idle_timer_ = sim_.schedule(config_.idle_reposition_period, [this, alive] {
    if (!*alive || !mounted_ || crashed_) return;
    if (!pending_.empty()) {
      arm_idle_timer();  // busy: the next write refreshes the references
      return;
    }
    // Refresh every idle unit's prediction reference with a read at the
    // predicted position (cost hidden in idle time, §3.1).
    for (std::uint8_t u = 0; u < units_.size(); ++u) {
      LogUnit& unit = units_[u];
      if (unit.busy || unit.full) continue;
      const disk::TrackId track = unit.allocator->current();
      const std::uint32_t target = unit.predictor->predict_sector(track, sim_.now());
      unit.busy = true;
      unit.device->read(unit.device->geometry().first_lba_of_track(track) + target, 1,
                        unit.scratch, [this, alive, u, track, target] {
                          if (!*alive) return;
                          LogUnit& uu = units_[u];
                          uu.predictor->set_reference(sim_.now(), track, target);
                          ++stats_.idle_repositions;
                          if (obs_ != nullptr && obs_->tracer.enabled())
                            obs_->tracer.instant("log.idle_reposition", "log", scope_.unit_tid_base + u);
                          uu.busy = false;
                          if (!pending_.empty()) service_log_queue();
                        });
    }
    arm_idle_timer();
  });
}

}  // namespace trail::core
