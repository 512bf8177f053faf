#include "io/device_queue.hpp"

#include <utility>

namespace trail::io {

DeviceQueue::DeviceQueue(disk::DiskDevice& device, std::unique_ptr<IoScheduler> scheduler)
    : device_(device),
      scheduler_(std::move(scheduler)),
      predictor_(device.geometry(), device.profile().rotation_time()),
      seek_(device.profile().seek),
      read_deadline_(device.profile().command_overhead + device.profile().seek.full_stroke +
                     device.profile().rotation_time()) {
  predictor_.set_delta(device.profile().command_overhead);
}

sim::Duration DeviceQueue::position_time(disk::Lba lba) const {
  const disk::Geometry& geom = device_.geometry();
  const disk::Chs to = geom.to_chs(lba);
  const disk::TrackId from = predictor_.reference_track();
  const sim::Duration seek =
      seek_.reposition_time(geom.cylinder_of_track(from), geom.surface_of_track(from),
                            to.cylinder, to.surface);
  return predictor_.position_time(geom.track_of(to.cylinder, to.surface), to.sector,
                                  device_.simulator().now(), seek);
}

HeadState DeviceQueue::head_state() const {
  HeadState head;
  head.lba = device_.geometry().first_lba_of_track(device_.current_track());
  head.now = device_.simulator().now();
  head.deadline = read_deadline_;
  if (predictor_.has_reference())
    head.position = [this](disk::Lba lba) { return position_time(lba); };
  return head;
}

void DeviceQueue::reference(disk::Lba last) {
  const disk::Geometry& geom = device_.geometry();
  const disk::Chs at = geom.to_chs(last);
  predictor_.set_reference(device_.simulator().now(), geom.track_of(at.cylinder, at.surface),
                           at.sector);
}

void DeviceQueue::attach_obs(obs::Obs* obs, std::uint32_t tid,
                             std::string_view depth_gauge_name,
                             std::string_view service_hist_name) {
  obs_ = obs;
  obs_tid_ = tid;
  if (obs_ != nullptr) {
    depth_gauge_ = &obs_->metrics.gauge(depth_gauge_name);
    skip_counter_ = &obs_->metrics.counter("io.dispatch_skips");
    hold_counter_ = &obs_->metrics.counter("io.anticipation_holds");
    hit_counter_ = &obs_->metrics.counter("io.anticipation_hits");
    reorder_counter_ = &obs_->metrics.counter("io.read_reorders");
    deadline_counter_ = &obs_->metrics.counter("io.read_deadline_dispatches");
    h_service_ =
        service_hist_name.empty() ? nullptr : &obs_->metrics.histogram(service_hist_name);
  } else {
    depth_gauge_ = nullptr;
    skip_counter_ = nullptr;
    hold_counter_ = nullptr;
    hit_counter_ = nullptr;
    reorder_counter_ = nullptr;
    deadline_counter_ = nullptr;
    h_service_ = nullptr;
  }
}

void DeviceQueue::update_depth() {
  if (depth_gauge_ == nullptr) return;
  const auto depth =
      static_cast<std::int64_t>(scheduler_->size()) + (dispatched_ ? 1 : 0);
  depth_gauge_->set(depth);
  if (obs_->tracer.enabled())
    obs_->tracer.counter("io.queue_depth", "io", depth, obs_tid_);
}

void DeviceQueue::submit(PendingIo io) {
  io.seq = next_seq_++;
  io.queued_at = device_.simulator().now();
  // Batched write-backs coalesce into an already-queued adjacent/
  // overlapping batch instead of occupying their own queue slot (§4.2).
  if (!scheduler_->try_merge(io)) scheduler_->push(std::move(io));
  pump();
  update_depth();
}

void DeviceQueue::pump() {
  if (dispatched_) return;
  while (!scheduler_->empty()) {
    if (holding()) return;
    Pick pick = scheduler_->pop_next(head_state());
    if (pick.rule == Pick::Rule::kCloser && reorder_counter_ != nullptr) reorder_counter_->inc();
    if (pick.rule == Pick::Rule::kDeadline && deadline_counter_ != nullptr)
      deadline_counter_->inc();
    PendingIo io = std::move(pick.io);
    if (!io.ranges.empty()) {
      if (begin_batch(std::move(io))) return;
      continue;  // every sub-range skipped; nothing reached the device
    }
    dispatched_ = true;
    const int priority = io.priority;
    const bool is_write = io.is_write;
    // Stamp `begin` only when tracing is live at dispatch; the completion
    // checks the same flag so enabling the tracer mid-flight can't emit a
    // span whose start predates the enable (it would begin at time 0).
    const disk::Lba last = io.lba + io.count - 1;
    const bool traced = obs_ != nullptr && obs_->tracer.enabled();
    const bool timed = traced || h_service_ != nullptr;
    sim::TimePoint begin{};
    if (timed) begin = obs_->tracer.now();
    auto finish = [this, alive = alive_, priority, is_write, last, traced, timed, begin,
                   cb = std::move(io.on_complete)]() {
      if (!*alive) return;
      reference(last);
      left_device(priority);
      if (timed && h_service_ != nullptr) h_service_->record(obs_->tracer.now() - begin);
      if (traced && obs_ != nullptr && obs_->tracer.enabled())
        obs_->tracer.complete(is_write ? "io.write" : "io.read", "io", begin,
                              obs_->tracer.now() - begin, obs_tid_);
      update_depth();
      if (cb) cb();
      if (!*alive) return;  // the callback destroyed the queue
      resume();
    };
    if (io.is_write) {
      device_.write(io.lba, io.count, io.data, std::move(finish));
    } else {
      device_.read(io.lba, io.count, io.out, std::move(finish));
    }
    return;
  }
}

void DeviceQueue::resume() {
  pump();
  if (idle() && on_idle_) {
    // Copy before invoking: the callback may replace or clear on_idle_
    // (StandardDriver::drain disarms every queue), which would destroy
    // the std::function mid-execution.
    const auto notify = on_idle_;
    notify();
  }
}

void DeviceQueue::left_device(int priority) {
  dispatched_ = false;
  hold_class_ = priority;
  hold_until_ = device_.simulator().now() + device_.profile().command_overhead;
}

bool DeviceQueue::holding() {
  // A reader's next request typically arrives microseconds after its
  // last one completes; a worse-class command started in between cannot
  // be preempted, so that request would wait out its whole service. The
  // window is the device's own fixed cost per command, so a hold idles
  // the disk no longer than one more command's overhead.
  const bool worse = scheduler_->next_priority() > hold_class_;
  sim::Simulator& sim = device_.simulator();
  if (hold_timer_.valid()) {
    if (worse) return true;
    sim.cancel(hold_timer_);  // a request of the held class ends the hold
    hold_timer_ = sim::EventId{};
    if (hit_counter_ != nullptr) hit_counter_->inc();
    return false;
  }
  if (!worse || sim.now() >= hold_until_) return false;
  if (hold_counter_ != nullptr) {
    hold_counter_->inc();
    if (obs_->tracer.enabled()) obs_->tracer.instant("io.hold", "io", obs_tid_);
  }
  hold_timer_ = sim.schedule_at(hold_until_, [this, alive = alive_] {
    if (!*alive) return;  // the queue is gone
    hold_timer_ = sim::EventId{};
    resume();
  });
  return true;
}

bool DeviceQueue::begin_batch(PendingIo io) {
  // Skip-filter the constituent ranges in merge order. A range fully
  // covered by earlier survivors is redundant — those survivors
  // materialize the latest buffered content at dispatch, so its bytes
  // ride along ("other write requests to the same buffer are skipped",
  // §4.2). Independently, a range whose content already became durable
  // drops out. Either way its `skipped` closure releases the pins the
  // enqueue took.
  std::vector<bool> covered(io.count, false);
  auto state = std::make_unique<BatchState>();
  for (auto& r : io.ranges) {
    const std::size_t off = r.lba - io.lba;
    bool redundant = true;
    for (std::size_t s = off; s < off + r.count; ++s) redundant = redundant && covered[s];
    if (redundant || (r.settled && r.settled())) {
      if (skip_counter_ != nullptr) {
        skip_counter_->inc();
        if (obs_->tracer.enabled()) obs_->tracer.instant("io.skip", "io", obs_tid_);
      }
      if (r.skipped) r.skipped();
      continue;
    }
    for (std::size_t s = off; s < off + r.count; ++s) covered[s] = true;
    state->survivors.push_back(std::move(r));
  }
  if (state->survivors.empty()) return false;

  // Carve the covered envelope into maximal contiguous runs (skip holes
  // split it) — a DiskDevice command is one contiguous sector run — and
  // materialize every survivor into its run at dispatch time. Overlapping
  // survivors rewrite identical bytes: `fill` snapshots the same latest
  // buffered content.
  std::size_t s = 0;
  while (s < io.count) {
    if (!covered[s]) {
      ++s;
      continue;
    }
    std::size_t e = s;
    while (e < io.count && covered[e]) ++e;
    BatchRun run;
    run.lba = io.lba + s;
    run.image.resize((e - s) * disk::kSectorSize);
    state->runs.push_back(std::move(run));
    s = e;
  }
  for (auto& r : state->survivors) {
    for (auto& run : state->runs) {
      const disk::Lba run_end = run.lba + run.image.size() / disk::kSectorSize;
      if (r.lba < run.lba || r.lba + r.count > run_end) continue;
      ++run.ranges;
      if (r.fill) {
        const std::size_t byte_off = (r.lba - run.lba) * disk::kSectorSize;
        r.fill(std::span<std::byte>(run.image).subspan(byte_off, r.count * disk::kSectorSize));
      }
      break;
    }
  }
  state->priority = io.priority;
  state->on_dispatch = std::move(io.on_dispatch);
  batch_ = std::move(state);
  dispatched_ = true;
  issue_batch_run();
  return true;
}

void DeviceQueue::issue_batch_run() {
  BatchState& b = *batch_;
  if (b.next == b.runs.size()) {
    // All runs on the platter: settle every survivor, then resume normal
    // pumping. Move the state out first — `done` can re-enter submit().
    const std::unique_ptr<BatchState> state = std::move(batch_);
    const std::shared_ptr<bool> alive = alive_;
    left_device(state->priority);
    for (auto& r : state->survivors)
      if (r.done) r.done();
    if (!*alive) return;  // a `done` destroyed the queue
    update_depth();
    resume();
    return;
  }
  BatchRun& run = b.runs[b.next++];
  const auto count = static_cast<std::uint32_t>(run.image.size() / disk::kSectorSize);
  if (b.on_dispatch) b.on_dispatch(run.ranges, count);
  const disk::Lba last = run.lba + count - 1;
  const bool traced = obs_ != nullptr && obs_->tracer.enabled();
  const bool timed = traced || h_service_ != nullptr;
  sim::TimePoint begin{};
  if (timed) begin = obs_->tracer.now();
  device_.write(run.lba, count, run.image, [this, alive = alive_, last, traced, timed, begin] {
    if (!*alive) return;
    reference(last);
    if (timed && h_service_ != nullptr) h_service_->record(obs_->tracer.now() - begin);
    if (traced && obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.complete("io.write", "io", begin, obs_->tracer.now() - begin, obs_tid_);
    issue_batch_run();
  });
}

}  // namespace trail::io
