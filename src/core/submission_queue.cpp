#include "core/submission_queue.hpp"

#include <chrono>

namespace trail::core {

// ---------------------------------------------------------------------------
// SubmissionQueue
// ---------------------------------------------------------------------------

SubmissionQueue::SubmissionQueue(std::size_t capacity, obs::MetricsRegistry* metrics)
    : cap_(capacity == 0 ? 1 : capacity) {
  if (metrics != nullptr) {
    c_enqueued_ = &metrics->counter("mpsc.enqueued");
    c_blocked_ = &metrics->counter("mpsc.blocked");
    h_blocked_ns_ = &metrics->histogram("mpsc.blocked_ns");
    g_depth_ = &metrics->gauge("mpsc.depth");
  }
}

Admission SubmissionQueue::submit(const Request& request) {
  sync::MutexLock lock(mu_);
  if (closed_) return Admission::kClosed;
  if (ring_.size() >= cap_) {
    // Backpressure: park until the consumer drains (or close() fires).
    // The wait is REAL time — the only wall-clock measurement in the
    // tree, and it never feeds back into simulated behaviour.
    if (c_blocked_ != nullptr) c_blocked_->inc();
    const auto t0 = std::chrono::steady_clock::now();
    while (ring_.size() >= cap_ && !closed_) not_full_.wait(mu_);
    if (h_blocked_ns_ != nullptr) {
      h_blocked_ns_->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    if (closed_) return Admission::kClosed;
  }
  ring_.push_back(request);
  if (c_enqueued_ != nullptr) c_enqueued_->inc();
  if (g_depth_ != nullptr) g_depth_->set(static_cast<std::int64_t>(ring_.size()));
  not_empty_.notify_one();
  return Admission::kOk;
}

std::size_t SubmissionQueue::drain_locked(std::vector<Request>& out) {
  const std::size_t n = ring_.size();
  out.insert(out.end(), ring_.begin(), ring_.end());
  ring_.clear();
  if (g_depth_ != nullptr) g_depth_->set(0);
  if (n > 0) not_full_.notify_all();
  return n;
}

std::size_t SubmissionQueue::drain(std::vector<Request>& out) {
  sync::MutexLock lock(mu_);
  return drain_locked(out);
}

std::size_t SubmissionQueue::drain_wait(std::vector<Request>& out) {
  sync::MutexLock lock(mu_);
  while (ring_.empty() && !closed_) not_empty_.wait(mu_);
  return drain_locked(out);
}

void SubmissionQueue::close() {
  sync::MutexLock lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

// ---------------------------------------------------------------------------
// MpscFrontEnd
// ---------------------------------------------------------------------------

MpscFrontEnd::MpscFrontEnd(sim::Simulator& sim, io::BlockDriver& driver, SubmissionQueue& queue,
                           obs::MetricsRegistry* metrics)
    : sim_(sim), driver_(driver), queue_(queue) {
  if (metrics != nullptr) h_batch_ = &metrics->histogram("mpsc.batch_requests");
}

void MpscFrontEnd::run() {
  std::vector<SubmissionQueue::Request> batch;
  for (;;) {
    batch.clear();
    std::size_t n;
    if (outstanding_ == 0) {
      // Nothing in flight: park with virtual time FROZEN at the last
      // acknowledgement. This is the determinism hinge — a single
      // synchronous producer always finds now() == its previous ack.
      n = queue_.drain_wait(batch);
      if (n == 0) break;  // closed and fully drained
    } else {
      n = queue_.drain(batch);
    }
    if (n > 0 && h_batch_ != nullptr) h_batch_->record(static_cast<std::int64_t>(n));

    for (const auto& r : batch) {
      ++outstanding_;
      ++submitted_;
      const sim::TimePoint t0 = sim_.now();
      driver_.submit_write(r.addr, r.count, r.data, [this, t0, ticket = r.ticket] {
        --outstanding_;
        ++acked_;
        if (ticket != nullptr) ticket->complete((sim_.now() - t0).ns());
      });
    }

    if (outstanding_ > 0 && !sim_.step()) {
      throw std::runtime_error("MpscFrontEnd: simulator stalled with writes outstanding");
    }
  }
}

}  // namespace trail::core
