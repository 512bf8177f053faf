// Real-thread MPSC submission front-end (tentpole of the thread-safety
// wall).
//
// The simulator is single-threaded by design — determinism is the whole
// point — but real clients live on real threads. This module puts a
// bounded multi-producer/single-consumer ring IN FRONT of the
// simulation: N producer threads enqueue synchronous-write requests
// (with backpressure), and exactly one consumer thread drains batches
// into the BlockDriver and steps the simulator.
// The split keeps the determinism argument trivial:
//
//   * producers touch ONLY the SubmissionQueue (including its mpsc.*
//     metric cells, written under the queue's mutex) and their
//     SyncTicket — never the simulator, driver, tracer, or any other
//     metric;
//   * the consumer thread EXCLUSIVELY owns the simulator: it is the only
//     thread that calls sim.step(), submit_write(), or emits trace
//     events, so virtual time stays a single-threaded total order.
//
// Backpressure: the ring holds at most `capacity` requests, and a full
// ring blocks the producer until the consumer drains. Closing the queue
// wakes every blocked producer with kClosed; requests already admitted
// still drain.
//
// Determinism note (single producer): the consumer never steps the
// simulator while it has no outstanding writes — it parks in
// drain_wait() with virtual time frozen at the last acknowledgement. A
// single synchronous producer (submit, wait ticket, repeat) therefore
// submits every request at virtual time == previous ack time, exactly
// the clustered scripted workload — byte-identical metrics and traces,
// which tests/test_mpsc.cpp asserts.
//
// Metrics (registered lazily iff a registry is attached; see DESIGN.md
// metric registry): mpsc.enqueued / mpsc.blocked counters,
// mpsc.blocked_ns histogram (REAL steady-clock nanoseconds a producer
// spent in backpressure — the only wall-clock metric in the tree),
// mpsc.depth gauge (+ high watermark), mpsc.batch_requests
// histogram (requests per consumer drain, the consumer's alone). obs
// cells have no lock of their own: read the four producer-written ones
// after joining the producers, or under mu_ (blocked()).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "io/block.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sync/sync.hpp"

namespace trail::core {

/// Completion token a producer blocks on: the consumer completes it
/// after the driver acknowledges the write, carrying the request's
/// simulated latency. One-shot (reset() to reuse).
class SyncTicket {
 public:
  /// Consumer side: mark done and publish the simulated latency.
  void complete(std::int64_t latency_ns) TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    done_ = true;
    latency_ns_ = latency_ns;
    cv_.notify_all();
  }

  /// Producer side: block until complete() fires.
  void wait() TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    while (!done_) cv_.wait(mu_);
  }

  [[nodiscard]] bool done() const TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return done_;
  }
  /// Simulated ns from consumer submit to driver ack (valid once done).
  [[nodiscard]] std::int64_t latency_ns() const TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return latency_ns_;
  }

  void reset() TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    done_ = false;
    latency_ns_ = 0;
  }

 private:
  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  bool done_ TRAIL_GUARDED_BY(mu_) = false;
  std::int64_t latency_ns_ TRAIL_GUARDED_BY(mu_) = 0;
};

/// What happened to a submission attempt.
enum class Admission : std::uint8_t {
  kOk = 0,      // admitted to the ring
  kClosed = 1,  // queue closed (before or while blocked)
};

/// Bounded MPSC ring of synchronous-write requests. Mutex+condvar, not
/// lock-free: the Clang Thread Safety Analysis can PROVE this shape
/// correct at compile time, and the consumer amortizes the lock over
/// whole-batch drains — the simulation step dwarfs the critical section.
class SubmissionQueue {
 public:
  struct Request {
    io::BlockAddr addr{};
    std::uint32_t count = 0;                // sectors
    std::span<const std::byte> data{};      // producer keeps alive until ack
    SyncTicket* ticket = nullptr;           // optional; completed at ack
  };

  /// `capacity` bounds the queued requests (>= 1 enforced). `metrics` may
  /// be null (no mpsc.* series registered). The registry must outlive the
  /// queue.
  explicit SubmissionQueue(std::size_t capacity, obs::MetricsRegistry* metrics = nullptr);

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Producer side: admit, blocking while the ring is full. Returns
  /// kClosed once close() ran.
  Admission submit(const Request& request) TRAIL_EXCLUDES(mu_);

  /// Consumer side: append every queued request to `out` (clearing the
  /// ring) and return how many. Never blocks.
  std::size_t drain(std::vector<Request>& out) TRAIL_EXCLUDES(mu_);

  /// Consumer side: like drain(), but blocks until at least one request
  /// is queued or the queue is closed. Returns 0 ONLY when closed and
  /// empty — the consumer's termination condition.
  std::size_t drain_wait(std::vector<Request>& out) TRAIL_EXCLUDES(mu_);

  /// Stop admissions and wake every blocked producer (they see kClosed)
  /// and a parked consumer. Requests already admitted still drain.
  void close() TRAIL_EXCLUDES(mu_);

  [[nodiscard]] bool closed() const TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t depth() const TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return ring_.size();
  }
  /// mpsc.blocked, read under the lock so any thread may poll it while
  /// producers run; 0 without a registry.
  [[nodiscard]] std::uint64_t blocked() const TRAIL_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return c_blocked_ != nullptr ? c_blocked_->value() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  std::size_t drain_locked(std::vector<Request>& out) TRAIL_REQUIRES(mu_);

  const std::size_t cap_;

  mutable sync::Mutex mu_;
  sync::CondVar not_full_;   // producers park here on a full ring
  sync::CondVar not_empty_;  // the consumer parks here in drain_wait
  std::vector<Request> ring_ TRAIL_GUARDED_BY(mu_);
  bool closed_ TRAIL_GUARDED_BY(mu_) = false;

  // The mpsc.* cells (set once in the ctor; null without a registry).
  obs::Counter* c_enqueued_ TRAIL_PT_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_blocked_ TRAIL_PT_GUARDED_BY(mu_) = nullptr;
  obs::Histogram* h_blocked_ns_ TRAIL_PT_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* g_depth_ TRAIL_PT_GUARDED_BY(mu_) = nullptr;
};

/// The single consumer: drains the queue into a BlockDriver and steps
/// the simulator until the work is acknowledged. run() executes on the
/// calling thread, which becomes the simulation thread for its duration
/// — no other thread may touch `sim` or `driver` while it runs.
class MpscFrontEnd {
 public:
  MpscFrontEnd(sim::Simulator& sim, io::BlockDriver& driver, SubmissionQueue& queue,
               obs::MetricsRegistry* metrics = nullptr);

  MpscFrontEnd(const MpscFrontEnd&) = delete;
  MpscFrontEnd& operator=(const MpscFrontEnd&) = delete;

  /// Consumer loop: drain → submit → step, parking in drain_wait()
  /// (virtual time frozen) whenever no write is outstanding. Returns
  /// when the queue is closed, drained, and every write acknowledged.
  void run();

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }

 private:
  sim::Simulator& sim_;
  io::BlockDriver& driver_;
  SubmissionQueue& queue_;
  obs::Histogram* h_batch_ = nullptr;

  // Consumer-thread-confined (only run() touches them).
  std::uint64_t outstanding_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t acked_ = 0;
};

}  // namespace trail::core
