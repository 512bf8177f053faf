// Event tracing for the observability layer (trail::obs).
//
// A bounded ring of typed events stamped with SIMULATED time: traces
// answer "why did the batching factor move" in virtual-time terms, and —
// because the simulation is deterministic — two runs of the same seed
// export byte-identical traces, which the test suite checks.
//
// Event kinds map onto the Chrome trace-event format (loadable in
// chrome://tracing and Perfetto):
//   * complete ("X")  — a span with begin timestamp and duration
//     (recorded once, at completion, so async operations need no
//     begin/end pairing across callbacks);
//   * instant  ("i")  — a point event, optionally carrying a value;
//   * counter  ("C")  — a sampled level (queue depth lanes).
//
// Storage uses the delta/mask capture idiom of hardware trace loggers:
// instead of a fixed 40+-byte struct per event, each event is one mask
// byte naming which fields differ from the previous event, followed by
// varint-encoded deltas for just those fields (timestamps zigzag-delta
// against the previous event, names/categories intern to small ids).
// Consecutive hot-path events mostly repeat name/cat/tid, so a typical
// event costs a handful of bytes — million-event production traces stay
// cheap to retain — while decode reconstructs the exact TraceEvent
// sequence, keeping exports byte-identical to the uncompressed form.
//
// Names and categories are `const char*` and must be string literals
// (or otherwise outlive the tracer): events store interned pointers.
// Names built at run time go through own_name() first.
// When the tracer is disabled every emit call is a single predictable
// branch; ScopedSpan degenerates to storing one null pointer.
//
// Thread safety: none inside. The tracer belongs to the simulation
// thread — `now()` reads SIMULATED time, and the MPSC front-end's
// producers never emit, only its consumer does.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trail::obs {

enum class TracePhase : std::uint8_t { kComplete, kInstant, kCounter };

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   // simulated begin time
  std::int64_t dur_ns = 0;  // kComplete only
  std::int64_t value = 0;   // kCounter level / kInstant arg
  std::uint32_t tid = 0;    // presentation lane (see set_track_name)
  TracePhase ph = TracePhase::kInstant;
  bool has_value = false;
};

class EventTracer {
 public:
  /// `capacity` bounds RETAINED EVENTS (not bytes); the oldest event is
  /// evicted when a push would exceed it, exactly as the old fixed ring.
  explicit EventTracer(const sim::Simulator& sim, std::size_t capacity = 1 << 16);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] sim::TimePoint now() const { return sim_->now(); }

  /// Name a presentation lane ("log0", "data1", "wal", ...). Metadata
  /// only; survives clear().
  void set_track_name(std::uint32_t tid, std::string name);

  /// A tracer-owned copy of a name built at run time (e.g. under a
  /// shard's metric prefix). The pointer stays valid for the tracer's
  /// lifetime, so retained events never outlive their name's storage.
  [[nodiscard]] const char* own_name(std::string name);

  /// A span [begin, begin+dur), emitted at completion time.
  void complete(const char* name, const char* cat, sim::TimePoint begin, sim::Duration dur,
                std::uint32_t tid = 0);
  void instant(const char* name, const char* cat, std::uint32_t tid = 0);
  void instant_value(const char* name, const char* cat, std::int64_t value,
                     std::uint32_t tid = 0);
  void counter(const char* name, const char* cat, std::int64_t value, std::uint32_t tid = 0);

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return cap_events_; }
  /// Events evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Oldest-first event access (i in [0, size())). Sequential access is
  /// O(1) amortized via an internal decode cursor; random access decodes
  /// forward from the oldest retained event.
  [[nodiscard]] TraceEvent at(std::size_t i) const;

  /// Bytes currently held by the delta/mask-encoded event stream — the
  /// compression the capture path buys (compare against
  /// size() * sizeof(TraceEvent) for the fixed-slot cost).
  [[nodiscard]] std::size_t encoded_bytes() const { return buf_.size() - head_off_; }

  void clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}), oldest event
  /// first, lane-name metadata first of all. Deterministic: equal event
  /// sequences serialize to equal bytes.
  [[nodiscard]] std::string export_chrome_json() const;

 private:
  /// Absolute field values at a point in the stream; the delta codec's
  /// reference. Default-initialized == the state before the first event.
  struct FieldState {
    const char* name = nullptr;
    const char* cat = nullptr;
    std::uint32_t name_id = 0;
    std::uint32_t cat_id = 0;
    std::uint32_t tid = 0;
    std::int64_t ts = 0;
    std::int64_t value = 0;
  };

  void push(const TraceEvent& e);
  void drop_oldest();
  [[nodiscard]] std::uint32_t intern(const char* s);
  /// Decode the event at byte offset `off` given the prior state; both
  /// advance past it.
  TraceEvent decode(std::size_t& off, FieldState& state) const;

  const sim::Simulator* const sim_;  // set at construction, never reseated
  const std::size_t cap_events_;
  bool enabled_ = false;

  std::vector<std::uint8_t> buf_;  // delta/mask event stream
  std::size_t head_off_ = 0;       // byte offset of the oldest event
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;

  FieldState tail_state_;  // encoder ref: the last captured event
  FieldState head_state_;  // decoder ref: before the oldest event

  // Name/category interning (pointer identity; literals repeat).
  std::vector<const char*> interned_{nullptr};  // id 0 == none yet
  std::map<const char*, std::uint32_t> intern_ids_;
  std::set<std::string> owned_names_;  // own_name() storage

  // Sequential-access cursor for at(): the state needed to decode event
  // index cursor_index_ at byte offset cursor_off_.
  mutable bool cursor_valid_ = false;
  mutable std::size_t cursor_index_ = 0;
  mutable std::size_t cursor_off_ = 0;
  mutable FieldState cursor_state_;

  std::map<std::uint32_t, std::string> track_names_;
};

/// RAII span for synchronous scopes (recovery phases, bench phases):
/// captures simulated begin time, emits one complete event at scope
/// exit. Construct with a null/disabled tracer for a guaranteed no-op.
class ScopedSpan {
 public:
  ScopedSpan(EventTracer* tracer, const char* name, const char* cat, std::uint32_t tid = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        cat_(cat),
        tid_(tid) {
    if (tracer_ != nullptr) begin_ = tracer_->now();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  /// End the span early (before scope exit). Idempotent.
  void finish() {
    if (tracer_ == nullptr) return;
    tracer_->complete(name_, cat_, begin_, tracer_->now() - begin_, tid_);
    tracer_ = nullptr;
  }

 private:
  EventTracer* tracer_;
  const char* name_;
  const char* cat_;
  std::uint32_t tid_;
  sim::TimePoint begin_{};
};

}  // namespace trail::obs
