#include "sim/simulator.hpp"

namespace trail::sim {

EventId Simulator::schedule(Duration delay, Callback fn) {
  if (delay < Duration{0}) delay = Duration{0};
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  const std::uint64_t gen = ++s.gen;
  queue_.push(Event{when, next_seq_++, slot});
  return EventId{slot, gen};
}

bool Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  // A stale generation means the event already fired (the slot was reused
  // or retired); a disarmed current generation means it was already
  // cancelled. Both report failure without touching anything.
  if (s.gen != id.gen_ || !s.armed) return false;
  s.armed = false;
  s.fn = nullptr;  // release captures promptly; the queue entry is POD
  ++cancelled_count_;
  // Cancel-heavy workloads (timeout wheels, re-armed idle timers) would
  // otherwise fill the heap with dead entries that every later push and
  // pop still sifts through. Once the dead at least match the live,
  // sweep them out in one O(n) pass; the amortized cost per cancel is
  // O(1) and dispatch order is untouched ((when, seq) is total).
  if (cancelled_count_ >= 64 && cancelled_count_ * 2 >= queue_.size()) compact_queue();
  return true;
}

void Simulator::compact_queue() {
  queue_.compact([this](const Event& e) { return slots_[e.slot].armed; },
                 [this](const Event& e) { retire_cancelled(e.slot); });
}

void Simulator::retire_cancelled(std::uint32_t slot) {
  --cancelled_count_;
  ++slots_[slot].gen;  // invalidate outstanding EventIds before reuse
  free_slots_.push_back(slot);
}

bool Simulator::dispatch_one() {
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    Slot& s = slots_[ev.slot];
    if (!s.armed) {
      retire_cancelled(ev.slot);
      continue;
    }
    // Move the callback out and recycle the slot *before* invoking: the
    // callback may schedule new events (possibly reusing this slot) or
    // cancel its own id (which the generation bump makes a clean no-op).
    Callback fn = std::move(s.fn);
    s.armed = false;
    ++s.gen;
    free_slots_.push_back(ev.slot);
    now_ = ev.when;
    ++dispatched_;
    fn();
    return true;
  }
  return false;
}

bool Simulator::step() { return dispatch_one(); }

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (dispatch_one()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    // Skip over cancelled events without advancing the clock.
    const Event& top = queue_.top();
    if (!slots_[top.slot].armed) {
      retire_cancelled(top.slot);
      queue_.pop();
      continue;
    }
    if (top.when > deadline) break;
    dispatch_one();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace trail::sim
