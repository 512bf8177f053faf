#include "db/buffer_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::db {

namespace {
/// CPU cost charged for a buffer-cache hit.
constexpr sim::Duration kHitDelay = sim::micros(1);
}  // namespace

BufferPool::BufferPool(sim::Simulator& sim, std::size_t capacity_pages, LogManager* wal)
    : sim_(sim), capacity_(capacity_pages), wal_(wal) {
  if (capacity_ == 0) throw std::invalid_argument("BufferPool: zero capacity");
}

std::uint32_t BufferPool::register_file(PageFile& file) {
  files_.push_back(&file);
  return static_cast<std::uint32_t>(files_.size() - 1);
}

void BufferPool::attach_obs(obs::Obs* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    c_hits_ = c_misses_ = c_evictions_ = c_dirty_wb_ = nullptr;
    g_resident_ = nullptr;
    return;
  }
  c_hits_ = &obs_->metrics.counter("db.cache_hits");
  c_misses_ = &obs_->metrics.counter("db.cache_misses");
  c_evictions_ = &obs_->metrics.counter("db.evictions");
  c_dirty_wb_ = &obs_->metrics.counter("db.dirty_writebacks");
  g_resident_ = &obs_->metrics.gauge("db.resident_pages");
  obs_->tracer.set_track_name(obs::kDbCacheTid, "db.cache");
}

void BufferPool::touch(Frame& frame) { lru_.splice(lru_.begin(), lru_, frame.lru_pos); }

BufferPool::Frame& BufferPool::frame_at(std::uint32_t file_id, PageNo page) {
  auto it = frames_.find(FrameKey{file_id, page});
  if (it == frames_.end()) throw std::logic_error("BufferPool: page not resident");
  return *it->second;
}

void BufferPool::fetch(std::uint32_t file_id, PageNo page, Use use) {
  const FrameKey key{file_id, page};
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    Frame& frame = *it->second;
    touch(frame);
    if (frame.loading) {
      frame.waiters.push_back(std::move(use));
      return;
    }
    ++stats_.hits;
    if (c_hits_ != nullptr) c_hits_->inc();
    // Charge a tiny CPU cost; run asynchronously to bound stack depth.
    hits_.push_back(Hit{key, std::move(use)});
    sim_.schedule(kHitDelay, [this, alive = alive_] {
      if (*alive) serve_hit();
    });
    return;
  }

  // Miss: take a frame and read the page.
  ++stats_.misses;
  if (c_misses_ != nullptr) c_misses_->inc();
  Frame* fp = insert_frame(key);
  fp->loading = true;
  fp->waiters.push_back(std::move(use));
  maybe_evict();

  if (g_resident_ != nullptr) g_resident_->set(static_cast<std::int64_t>(frames_.size()));
  sim::TimePoint load_begin{};
  const bool traced = obs_ != nullptr && obs_->tracer.enabled();
  if (traced) load_begin = sim_.now();
  auto alive = alive_;
  files_.at(file_id)->read_pages(page, fp->data, [this, alive, fp, traced, load_begin] {
    if (!*alive) return;
    if (traced && obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.complete("db.page_load", "db", load_begin, sim_.now() - load_begin,
                            obs::kDbCacheTid);
    fp->loading = false;
    auto waiters = std::move(fp->waiters);
    fp->waiters.clear();
    for (auto& w : waiters) w(fp->data);
  });
}

BufferPool::Frame* BufferPool::insert_frame(const FrameKey& key) {
  if (spare_lru_.empty()) {
    lru_.push_front(key);
  } else {
    spare_lru_.front() = key;
    lru_.splice(lru_.begin(), spare_lru_, spare_lru_.begin());
  }
  if (spare_frames_.empty()) {
    auto frame = std::make_unique<Frame>();
    frame->data.resize(kPageSize);
    frame->lru_pos = lru_.begin();
    Frame* fp = frame.get();
    frames_.emplace(key, std::move(frame));
    return fp;
  }
  // A reinserted node lands where emplace would put it, so the map's
  // iteration order (the checkpoint's write order) is unchanged.
  FrameMap::node_type node = std::move(spare_frames_.back());
  spare_frames_.pop_back();
  node.key() = key;
  Frame& frame = *node.mapped();
  std::vector<std::byte> data = std::move(frame.data);
  frame = Frame{};
  frame.data = std::move(data);
  frame.lru_pos = lru_.begin();
  frames_.insert(std::move(node));
  return &frame;
}

void BufferPool::drop_frame(const FrameKey& key, std::list<FrameKey>::iterator lru_pos) {
  spare_lru_.splice(spare_lru_.begin(), lru_, lru_pos);
  spare_frames_.push_back(frames_.extract(key));
}

void BufferPool::serve_hit() {
  Hit hit = std::move(hits_[hits_head_++]);
  if (hits_head_ == hits_.size()) {
    hits_.clear();
    hits_head_ = 0;
  }
  // An eviction write completing meanwhile may drop the frame, so look it
  // up again and start over if it is gone or loading again.
  const auto it = frames_.find(hit.key);
  if (it == frames_.end() || it->second->loading) {
    fetch(hit.key.file, hit.key.page, std::move(hit.use));
    return;
  }
  hit.use(it->second->data);
}

void BufferPool::mark_dirty(std::uint32_t file_id, PageNo page) {
  Frame& f = frame_at(file_id, page);
  f.dirty = true;
  ++f.version;
  // WAL rule bookkeeping: everything logged so far (including the record
  // for this change — transactions append before applying) must reach
  // disk before this page may.
  if (wal_ != nullptr) f.flush_lsn = wal_->next_lsn();
}

void BufferPool::pin(std::uint32_t file_id, PageNo page) { ++frame_at(file_id, page).pins; }

void BufferPool::unpin(std::uint32_t file_id, PageNo page) {
  Frame& f = frame_at(file_id, page);
  if (f.pins == 0) throw std::logic_error("BufferPool: unpin of unpinned page");
  if (--f.pins == 0 && f.capture_pending) {
    capture_if_idle(FrameKey{file_id, page}, f);
    pump_checkpoint();
  }
}

std::uint32_t BufferPool::take_copy(const FrameKey& key, Frame& frame) {
  frame.flushing = true;
  std::uint32_t id;
  if (free_copies_.empty()) {
    id = static_cast<std::uint32_t>(copies_.size());
    copies_.emplace_back();
  } else {
    id = free_copies_.back();
    free_copies_.pop_back();
  }
  Copy& copy = copies_[id];
  copy.key = key;
  copy.image.assign(frame.data.begin(), frame.data.end());
  copy.version = frame.version;
  copy.flush_lsn = frame.flush_lsn;
  return id;
}

void BufferPool::write_copy(std::uint32_t copy, std::function<void(Frame&)> done) {
  copies_[copy].done = std::move(done);
  auto write_page = [this, alive = alive_, copy] {
    if (!*alive) return;
    const Copy& page = copies_[copy];
    // The driver copies the image at submission.
    files_.at(page.key.file)->write_page(page.key.page, page.image, [this, alive, copy] {
      if (!*alive) return;
      Copy& written = copies_[copy];
      // A flushing frame is never dropped.
      Frame& f = *frames_.at(written.key);
      f.flushing = false;
      if (f.version == written.version) f.dirty = false;
      const auto done = std::move(written.done);
      free_copies_.push_back(copy);
      done(f);
    });
  };
  if (wal_ != nullptr)
    wal_->flush_until(copies_[copy].flush_lsn, std::move(write_page));
  else
    write_page();
}

void BufferPool::maybe_evict() {
  while (frames_.size() > capacity_) {
    // Scan from the LRU tail for an evictable frame.
    auto pos = lru_.end();
    Frame* victim = nullptr;
    FrameKey victim_key{};
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto fit = frames_.find(*it);
      Frame& f = *fit->second;
      if (f.pins > 0 || f.loading || f.flushing) continue;
      victim = &f;
      victim_key = *it;
      pos = std::next(it).base();
      break;
    }
    if (victim == nullptr) return;  // everything pinned/in-flight: soft cap

    if (!victim->dirty) {
      drop_frame(victim_key, pos);
      ++stats_.evictions;
      if (c_evictions_ != nullptr) c_evictions_->inc();
      if (g_resident_ != nullptr) g_resident_->set(static_cast<std::int64_t>(frames_.size()));
      continue;
    }
    // Dirty victim: write a copy back, then drop the frame if nothing
    // changed it meanwhile.
    ++stats_.dirty_writebacks;
    if (c_dirty_wb_ != nullptr) {
      c_dirty_wb_->inc();
      if (obs_->tracer.enabled())
        obs_->tracer.instant("db.evict_dirty", "db", obs::kDbCacheTid);
    }
    write_copy(take_copy(victim_key, *victim), [this, key = victim_key](Frame& f) {
      capture_if_idle(key, f);
      if (!f.dirty && f.pins == 0) {
        drop_frame(key, f.lru_pos);
        ++stats_.evictions;
        if (c_evictions_ != nullptr) c_evictions_->inc();
        if (g_resident_ != nullptr) g_resident_->set(static_cast<std::int64_t>(frames_.size()));
      }
      pump_checkpoint();
      maybe_evict();
    });
    return;  // the rest of the eviction continues asynchronously
  }
}

void BufferPool::flush_dirty(std::function<void()> done) {
  if (ckpt_ != nullptr) throw std::logic_error("BufferPool: flush_dirty while one is running");
  ckpt_ = std::make_unique<Checkpoint>();
  ckpt_->done = std::move(done);
  for (auto& [key, frame] : frames_) {
    if (!frame->dirty) continue;
    if (frame->pins > 0 || frame->flushing) {
      frame->capture_pending = true;
      ++ckpt_->uncaptured;
    } else {
      ckpt_->queue.push_back(take_copy(key, *frame));
    }
  }
  pump_checkpoint();
}

void BufferPool::capture_if_idle(const FrameKey& key, Frame& frame) {
  if (!frame.capture_pending || frame.pins > 0 || frame.flushing) return;
  frame.capture_pending = false;
  --ckpt_->uncaptured;
  if (frame.dirty) ckpt_->queue.push_back(take_copy(key, frame));
}

void BufferPool::pump_checkpoint() {
  if (ckpt_ == nullptr) return;
  while (ckpt_->in_flight < kCheckpointWindow && !ckpt_->queue.empty()) {
    const std::uint32_t copy = ckpt_->queue.front();
    ckpt_->queue.pop_front();
    ++ckpt_->in_flight;
    ++stats_.checkpoint_writes;
    write_copy(copy, [this](Frame&) {
      --ckpt_->in_flight;
      pump_checkpoint();
    });
  }
  if (ckpt_->in_flight == 0 && ckpt_->queue.empty() && ckpt_->uncaptured == 0) {
    auto done = std::move(ckpt_->done);
    ckpt_.reset();
    if (done) done();
  }
}

void BufferPool::reset() {
  if (dirty_pages() > 0) throw std::logic_error("BufferPool: reset would drop a dirty frame");
  // In-flight completions for dropped frames must become no-ops: swap the
  // liveness token.
  *alive_ = false;
  alive_ = std::make_shared<bool>(true);
  frames_.clear();
  lru_.clear();
  hits_.clear();
  hits_head_ = 0;
  ckpt_.reset();
  copies_.clear();
  free_copies_.clear();
}

void BufferPool::audit(audit::Report& report, bool quiescent) const {
  audit::Check& check = report.check("pool.frames");
  check.require(lru_.size() == frames_.size(), "LRU list and frame map disagree in size");
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    const auto fit = frames_.find(*it);
    if (!check.require(fit != frames_.end(), "LRU entry without a frame")) continue;
    check.require(fit->second->lru_pos == it, "frame's LRU position points elsewhere");
  }
  std::size_t uncaptured = 0;
  for (const auto& [key, frame] : frames_) {
    if (frame->dirty && wal_ != nullptr)
      check.require(frame->flush_lsn <= wal_->next_lsn(),
                    "dirty frame's WAL flush LSN beyond the append point");
    if (!frame->loading)
      check.require(frame->waiters.empty(), "fetch waiters on a frame that is not loading");
    if (frame->capture_pending) {
      ++uncaptured;
      check.require(frame->pins > 0 || frame->flushing,
                    "frame awaiting capture is unpinned and idle");
    }
    if (quiescent) {
      check.require(frame->pins == 0, "pinned frame at a quiesce point");
      check.require(!frame->loading && !frame->flushing,
                    "frame I/O still in flight at a quiesce point");
    }
  }
  check.require(uncaptured == (ckpt_ != nullptr ? ckpt_->uncaptured : 0),
                "frames awaiting capture disagree with the running checkpoint");
}

std::size_t BufferPool::dirty_pages() const {
  std::size_t n = 0;
  for (const auto& [key, frame] : frames_)
    if (frame->dirty) ++n;
  return n;
}

}  // namespace trail::db
