// Discrete-event simulation core.
//
// The Simulator owns a virtual clock and a priority queue of events. All
// device models (disks), drivers (Trail, the standard baseline) and
// workload processes are written against it: they schedule callbacks at
// future virtual times, and the run loop dispatches them in time order.
// Ties are broken by insertion order, so runs are fully deterministic.
//
// Hot-path layout: the priority queue holds only POD (when, seq, slot)
// triples; callbacks live in a generation-stamped slot map reused across
// events. Cancellation flips the slot's armed flag in O(1) — the queue
// entry is discarded when it surfaces — and EventIds carry the slot's
// generation so cancelling an already-fired or already-cancelled event is
// detected exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace trail::sim {

/// Handle to a scheduled event, usable to cancel it before it fires.
class EventId {
 public:
  constexpr EventId() = default;

  [[nodiscard]] constexpr bool valid() const { return gen_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Simulator;
  constexpr EventId(std::uint32_t slot, std::uint64_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;  // 0 = "no event"
};

class Simulator {
 public:
  // Every pending event holds one in its slot. Its own captures fit 48
  // bytes; 16 more per slot cost about 30% in bench_engine's
  // BM_EventCancelHeavy.
  using Callback = sim::Callback<void(), 48>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run at now() + delay. Negative delays are clamped to 0.
  EventId schedule(Duration delay, Callback fn);

  /// Schedule `fn` at an absolute virtual time (>= now()).
  EventId schedule_at(TimePoint when, Callback fn);

  /// Cancel a pending event in O(1). Returns false if it already fired /
  /// was cancelled / never existed.
  bool cancel(EventId id);

  /// Run until the event queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Run until the queue drains or virtual time would pass `deadline`.
  /// Events scheduled at exactly `deadline` still fire; the clock is then
  /// advanced to `deadline` if it hasn't reached it.
  std::uint64_t run_until(TimePoint deadline);

  /// Dispatch a single event; returns false if the queue is empty.
  bool step();

  /// Number of live pending events (cancelled ones excluded).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size() - cancelled_count_; }

  /// Total events dispatched over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  struct Event {  // POD: cheap to sift through the heap
    TimePoint when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  // 4-ary min-heap on (when, seq). The wider node fans sift-downs across
  // one cache line of children, roughly halving the comparisons-with-miss
  // cost of a binary heap for the push/pop-dominated dispatch loop. The
  // (when, seq) order is total, so heap shape never affects dispatch order.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const { return v_.empty(); }
    [[nodiscard]] std::size_t size() const { return v_.size(); }
    [[nodiscard]] const Event& top() const { return v_.front(); }

    void push(Event e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(v_[i], v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    void pop() {
      v_.front() = v_.back();
      v_.pop_back();
      if (!v_.empty()) sift_down(0);
    }

    /// Drop every entry failing `keep` in one O(n) sweep, then re-heapify
    /// (Floyd's bottom-up pass). `removed` sees each dropped entry. Since
    /// (when, seq) is a strict total order, rebuilding the heap can never
    /// change dispatch order — only the internal shape.
    template <typename Keep, typename Removed>
    void compact(Keep&& keep, Removed&& removed) {
      std::size_t out = 0;
      for (const Event& e : v_) {
        if (keep(e))
          v_[out++] = e;
        else
          removed(e);
      }
      v_.resize(out);
      if (v_.size() < 2) return;
      for (std::size_t i = (v_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
    }

   private:
    void sift_down(std::size_t i) {
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= v_.size()) break;
        const std::size_t last = std::min(first + 4, v_.size());
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
          if (before(v_[c], v_[best])) best = c;
        if (!before(v_[best], v_[i])) break;
        std::swap(v_[i], v_[best]);
        i = best;
      }
    }
    static bool before(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
    std::vector<Event> v_;
  };

  struct Slot {
    Callback fn;
    std::uint64_t gen = 0;  // bumped each time the slot is armed
    bool armed = false;     // scheduled and not yet fired/cancelled
  };

  bool dispatch_one();
  // A popped/surfaced queue entry whose slot is disarmed was cancelled:
  // recycle the slot and fix the pending count.
  void retire_cancelled(std::uint32_t slot);
  // Sweep cancelled entries out of the heap when they dominate it.
  void compact_queue();

  TimePoint now_{0};
  EventHeap queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_count_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace trail::sim
