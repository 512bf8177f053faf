// Request-scoped causal attribution (trail::obs v2).
//
// The paper's argument is a latency decomposition — a synchronous write
// spends its time queueing, positioning the head, and transferring bits,
// and track-based logging wins by collapsing the positioning term. This
// module makes that decomposition observable per request: every write
// admitted to the driver carries a lightweight context (id, shard,
// submit tick) that is stamped at each hand-off along the write path,
// and the stamped intervals land in per-phase log-linear histograms
// (`req.phase.<name>`) whose sums are audited against the end-to-end
// latency (`req.total_ns`) — the phases must partition the request's
// life exactly, in integer simulated nanoseconds.
//
// Phase model (consecutive intervals; every boundary is a stamp):
//   queue     admission -> dispatch of the physical log write that
//             carries the request's last sector
//   position  the head-positioning share of that write's service span,
//             estimated from published drive characteristics (δ +
//             rotational wait to the landing sector) — the same model the
//             predictor itself runs on, never the device internals
//   transfer  the rest of the service span (media transfer)
//
// On top of the tracker rides a post-mortem surface: an always-on
// FlightRecorder — a bounded ring of compact per-request summaries,
// delta-encoded like the event tracer, dumped by audit failures and
// `log_inspector --flightdump`.
//
// Thread safety: none inside. Trackers and the recorder belong to the
// simulation thread, where every request is admitted and acknowledged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace trail::obs {

struct Obs;

enum class ReqPhase : std::uint8_t {
  kQueue = 0,
  kPosition = 1,
  kTransfer = 2,
};
inline constexpr std::size_t kReqPhaseCount = 3;

/// Short phase name ("queue", "position", "transfer") used in metric names, trace
/// instants and flight-record dumps.
[[nodiscard]] const char* req_phase_name(ReqPhase phase);

/// One finished request, as retained by the FlightRecorder.
struct FlightRecord {
  static constexpr std::uint8_t kFlagDirect = 1 << 0;     // direct-log append
  static constexpr std::uint8_t kFlagRecovered = 1 << 1;  // rebuilt by recovery

  std::uint64_t id = 0;
  std::uint32_t shard = 0;
  std::uint32_t sectors = 0;
  std::uint8_t flags = 0;
  std::int64_t submit_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t phase_ns[kReqPhaseCount] = {};

  bool operator==(const FlightRecord&) const = default;
};

/// Always-on bounded ring of per-request summaries for post-mortem
/// triage: cheap enough to leave running (records are delta/mask
/// encoded against their predecessor, exactly the EventTracer's storage
/// idiom — a steady-state record costs a handful of bytes), and dumped
/// as deterministic text by `trail::audit` failures, recovery, and
/// `log_inspector --flightdump`. The oldest record is evicted when a
/// push would exceed the capacity.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 12);

  /// Re-bound the ring (drops oldest records if shrinking below size()).
  void set_capacity(std::size_t capacity);

  void push(const FlightRecord& record);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Records evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Bytes currently held by the delta/mask-encoded stream.
  [[nodiscard]] std::size_t encoded_bytes() const { return buf_.size() - head_off_; }

  /// Oldest-first record access, i in [0, size()); throws
  /// std::out_of_range otherwise. Decodes forward from the oldest
  /// retained record — O(i); reporting/test path only.
  [[nodiscard]] FlightRecord at(std::size_t i) const;

  void clear();

  /// Deterministic text dump, oldest record first: one header line plus
  /// one line per record (integer nanoseconds — no float formatting).
  [[nodiscard]] std::string dump() const { return dump_tail(SIZE_MAX); }
  /// Like dump(), but only the newest `n` records.
  [[nodiscard]] std::string dump_tail(std::size_t n) const;

 private:
  /// Absolute field values at a point in the stream (the codec's
  /// reference); default-initialized == the state before the first record.
  struct FieldState {
    std::uint64_t id = 0;
    std::uint32_t shard = 0;
    std::uint32_t sectors = 0;
    std::uint8_t flags = 0;
    std::int64_t submit_ns = 0;
  };

  void drop_oldest();
  FlightRecord decode(std::size_t& off, FieldState& state) const;

  std::size_t cap_;
  std::vector<std::uint8_t> buf_;  // delta/mask record stream
  std::size_t head_off_ = 0;       // byte offset of the oldest record
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  FieldState tail_state_;  // encoder ref: the last pushed record
  FieldState head_state_;  // decoder ref: before the oldest
};

/// Per-driver request attribution: open() at submit, stamp() at each
/// hand-off, finish() at the acknowledgement. Durations accumulate in
/// the open context and land in the histograms only at finish, so at
/// ANY instant the invariant
///     sum over phases of `req.phase.<p>`.sum() == `req.total_ns`.sum()
/// holds exactly (integer ns) unless a stamping bug produced a request
/// whose phases do not partition its life — counted in mismatches() and
/// asserted by the driver's `req.attribution` audit check.
///
/// Metrics registered (under the scope's prefix): `req.total_ns`,
/// `req.phase.<phase>` histograms and the `req.mismatch` counter — all
/// at construction, so exports are name-stable whether or not a phase
/// ever fires.
class ReqTracker {
 public:
  struct Options {
    std::string metric_prefix;  // "" or "shard.<k>."
    std::uint32_t shard = 0;    // flight-record shard tag
  };

  ReqTracker(Obs& obs, Options options);

  /// Open a context at submit time; the driver finishes it at the ack.
  [[nodiscard]] std::uint64_t open(sim::TimePoint submit, std::uint32_t sectors, bool direct);

  /// Attribute [last stamp, now) to `phase`. Unknown ids are ignored
  /// (a crash abandons contexts while completions may still fire).
  void stamp(std::uint64_t id, ReqPhase phase, sim::TimePoint now);

  /// Attribute [last stamp, now) to position + transfer: the estimated
  /// positioning share (clamped into the interval) goes to kPosition,
  /// the remainder to kTransfer — so the partition stays exact whatever
  /// the estimate says.
  void stamp_service(std::uint64_t id, sim::Duration position_estimate, sim::TimePoint now);

  /// Close the context: record total + per-phase histograms, push the
  /// flight record, count a mismatch if the stamps do not sum to the
  /// end-to-end latency.
  void finish(std::uint64_t id, sim::TimePoint now);

  /// Crash path: drop every open context (no mismatch accounting — the
  /// requests genuinely never completed).
  void abandon_all();

  [[nodiscard]] std::size_t open_count() const { return open_.size(); }
  [[nodiscard]] std::uint64_t finished() const { return finished_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

  /// Histogram mass on both sides of the audit invariant.
  [[nodiscard]] std::int64_t phase_ns_total() const;
  [[nodiscard]] std::int64_t total_ns_total() const { return h_total_->sum(); }

 private:
  struct Ctx {
    sim::TimePoint submit{};
    sim::TimePoint last{};  // end of the last stamped interval
    std::int64_t phase_ns[kReqPhaseCount] = {};
    std::uint8_t stamped_mask = 0;  // phases stamped at least once
    std::uint32_t sectors = 0;
    std::uint8_t flags = 0;
  };

  static void apply(Ctx& ctx, ReqPhase phase, std::int64_t ns);

  FlightRecorder* flight_;
  std::uint32_t shard_;

  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Ctx> open_;
  std::uint64_t finished_ = 0;
  std::uint64_t mismatches_ = 0;

  Histogram* h_total_;
  Histogram* h_phase_[kReqPhaseCount];
  Counter* c_mismatch_;
};

}  // namespace trail::obs
