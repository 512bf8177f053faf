#include "obs/trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/ring_codec.hpp"

namespace trail::obs {

using ring::get_varint;
using ring::put_varint;
using ring::unzigzag;
using ring::zigzag;

namespace {

// Event encoding: one mask byte, then varint fields for what changed.
//   bits 0-1  TracePhase
//   bit  2    has_value (value zigzag-delta follows the timestamp/dur)
//   bit  3    name differs from the previous event (interned id follows)
//   bit  4    cat differs (interned id follows)
//   bit  5    tid differs (tid follows)
// The timestamp zigzag-delta is always present; the duration varint is
// present exactly for kComplete events.
constexpr std::uint8_t kPhaseMask = 0x03;
constexpr std::uint8_t kHasValue = 0x04;
constexpr std::uint8_t kNameChanged = 0x08;
constexpr std::uint8_t kCatChanged = 0x10;
constexpr std::uint8_t kTidChanged = 0x20;

}  // namespace

EventTracer::EventTracer(const sim::Simulator& sim, std::size_t capacity)
    : sim_(&sim), cap_events_(capacity == 0 ? 1 : capacity) {}

void EventTracer::set_track_name(std::uint32_t tid, std::string name) {
  track_names_[tid] = std::move(name);
}

const char* EventTracer::own_name(std::string name) {
  return owned_names_.insert(std::move(name)).first->c_str();
}

std::uint32_t EventTracer::intern(const char* s) {
  const auto [it, inserted] = intern_ids_.try_emplace(s, static_cast<std::uint32_t>(interned_.size()));
  if (inserted) interned_.push_back(s);
  return it->second;
}

void EventTracer::push(const TraceEvent& e) {
  if (count_ == cap_events_) drop_oldest();
  std::uint8_t mask = static_cast<std::uint8_t>(e.ph) & kPhaseMask;
  if (e.has_value) mask |= kHasValue;
  if (e.name != tail_state_.name) mask |= kNameChanged;
  if (e.cat != tail_state_.cat) mask |= kCatChanged;
  if (e.tid != tail_state_.tid) mask |= kTidChanged;
  buf_.push_back(mask);
  if ((mask & kNameChanged) != 0) {
    tail_state_.name = e.name;
    tail_state_.name_id = intern(e.name);
    put_varint(buf_, tail_state_.name_id);
  }
  if ((mask & kCatChanged) != 0) {
    tail_state_.cat = e.cat;
    tail_state_.cat_id = intern(e.cat);
    put_varint(buf_, tail_state_.cat_id);
  }
  if ((mask & kTidChanged) != 0) {
    tail_state_.tid = e.tid;
    put_varint(buf_, e.tid);
  }
  put_varint(buf_, zigzag(e.ts_ns - tail_state_.ts));
  tail_state_.ts = e.ts_ns;
  if (e.ph == TracePhase::kComplete) put_varint(buf_, static_cast<std::uint64_t>(e.dur_ns));
  if (e.has_value) {
    put_varint(buf_, zigzag(e.value - tail_state_.value));
    tail_state_.value = e.value;
  }
  ++count_;
}

TraceEvent EventTracer::decode(std::size_t& off, FieldState& state) const {
  const std::uint8_t mask = buf_[off++];
  if ((mask & kNameChanged) != 0) {
    state.name_id = static_cast<std::uint32_t>(get_varint(buf_, off));
    state.name = interned_[state.name_id];
  }
  if ((mask & kCatChanged) != 0) {
    state.cat_id = static_cast<std::uint32_t>(get_varint(buf_, off));
    state.cat = interned_[state.cat_id];
  }
  if ((mask & kTidChanged) != 0) state.tid = static_cast<std::uint32_t>(get_varint(buf_, off));
  state.ts += unzigzag(get_varint(buf_, off));
  TraceEvent e;
  e.name = state.name;
  e.cat = state.cat;
  e.tid = state.tid;
  e.ts_ns = state.ts;
  e.ph = static_cast<TracePhase>(mask & kPhaseMask);
  if (e.ph == TracePhase::kComplete)
    e.dur_ns = static_cast<std::int64_t>(get_varint(buf_, off));
  if ((mask & kHasValue) != 0) {
    state.value += unzigzag(get_varint(buf_, off));
    e.value = state.value;
    e.has_value = true;
  }
  return e;
}

void EventTracer::drop_oldest() {
  decode(head_off_, head_state_);
  --count_;
  ++dropped_;
  // Shift the sequential cursor: yesterday's index i is today's i-1.
  if (cursor_valid_) {
    if (cursor_index_ == 0)
      cursor_valid_ = false;
    else
      --cursor_index_;
  }
  const std::size_t removed = ring::compact(buf_, head_off_);
  if (cursor_valid_) cursor_off_ -= removed;
}

TraceEvent EventTracer::at(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("EventTracer::at");
  if (!cursor_valid_ || i < cursor_index_) {
    cursor_index_ = 0;
    cursor_off_ = head_off_;
    cursor_state_ = head_state_;
    cursor_valid_ = true;
  }
  TraceEvent e;
  do {
    e = decode(cursor_off_, cursor_state_);
    ++cursor_index_;
  } while (cursor_index_ <= i);
  return e;
}

void EventTracer::complete(const char* name, const char* cat, sim::TimePoint begin,
                           sim::Duration dur, std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = begin.ns();
  e.dur_ns = dur.ns();
  e.tid = tid;
  e.ph = TracePhase::kComplete;
  push(e);
}

void EventTracer::instant(const char* name, const char* cat, std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.tid = tid;
  e.ph = TracePhase::kInstant;
  push(e);
}

void EventTracer::instant_value(const char* name, const char* cat, std::int64_t value,
                                std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.value = value;
  e.has_value = true;
  e.tid = tid;
  e.ph = TracePhase::kInstant;
  push(e);
}

void EventTracer::counter(const char* name, const char* cat, std::int64_t value,
                          std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.value = value;
  e.has_value = true;
  e.tid = tid;
  e.ph = TracePhase::kCounter;
  push(e);
}

void EventTracer::clear() {
  buf_.clear();
  buf_.shrink_to_fit();
  head_off_ = 0;
  count_ = 0;
  dropped_ = 0;
  tail_state_ = FieldState{};
  head_state_ = FieldState{};
  cursor_valid_ = false;
  // The intern table survives (pointers are literals and ids are only
  // meaningful alongside buffered events, which are gone).
}

namespace {

/// Nanoseconds -> Chrome's microsecond timestamps, exactly ("123.456").
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string EventTracer::export_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& [tid, name] : track_names_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid, name.c_str());
    out += buf;
    first = false;
  }
  std::size_t off = head_off_;
  FieldState state = head_state_;
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent e = decode(off, state);
    std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%u,",
                  first ? "" : ",", e.name, e.cat, e.tid);
    out += buf;
    first = false;
    out += "\"ts\":";
    append_us(out, e.ts_ns);
    switch (e.ph) {
      case TracePhase::kComplete:
        out += ",\"ph\":\"X\",\"dur\":";
        append_us(out, e.dur_ns);
        out += "}";
        break;
      case TracePhase::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        if (e.has_value) {
          std::snprintf(buf, sizeof buf, ",\"args\":{\"value\":%lld}",
                        static_cast<long long>(e.value));
          out += buf;
        }
        out += "}";
        break;
      case TracePhase::kCounter:
        std::snprintf(buf, sizeof buf, ",\"ph\":\"C\",\"args\":{\"value\":%lld}}",
                      static_cast<long long>(e.value));
        out += buf;
        break;
    }
  }
  out += "]}";
  return out;
}

}  // namespace trail::obs
