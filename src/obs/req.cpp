#include "obs/req.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/ring_codec.hpp"

namespace trail::obs {

const char* req_phase_name(ReqPhase phase) {
  switch (phase) {
    case ReqPhase::kQueue:
      return "queue";
    case ReqPhase::kPosition:
      return "position";
    case ReqPhase::kTransfer:
      return "transfer";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FlightRecorder codec
// ---------------------------------------------------------------------------
//
// Same storage idiom as the EventTracer: one mask byte naming which
// header fields differ from the previous record, varint/zigzag deltas
// for just those, then the always-varying payload (total + a phase
// presence mask + one varint per stamped phase). Steady-state requests
// from one shard differ only in id (+1), submit delta, total, and a few
// phase values — a handful of bytes per record.

using ring::get_varint;
using ring::put_varint;
using ring::unzigzag;
using ring::zigzag;

namespace {

constexpr std::uint8_t kMaskId = 1 << 0;      // id delta != +1
constexpr std::uint8_t kMaskShard = 1 << 1;   // shard changed
constexpr std::uint8_t kMaskSectors = 1 << 2; // sector count changed
constexpr std::uint8_t kMaskFlags = 1 << 3;   // flags changed
constexpr std::uint8_t kMaskSubmit = 1 << 4;  // submit delta != 0

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::set_capacity(std::size_t capacity) {
  cap_ = capacity == 0 ? 1 : capacity;
  while (count_ > cap_) drop_oldest();
}

void FlightRecorder::push(const FlightRecord& r) {
  while (count_ >= cap_) drop_oldest();

  std::uint8_t mask = 0;
  const std::int64_t id_delta =
      static_cast<std::int64_t>(r.id) - static_cast<std::int64_t>(tail_state_.id);
  if (id_delta != 1) mask |= kMaskId;
  if (r.shard != tail_state_.shard) mask |= kMaskShard;
  if (r.sectors != tail_state_.sectors) mask |= kMaskSectors;
  if (r.flags != tail_state_.flags) mask |= kMaskFlags;
  const std::int64_t submit_delta = r.submit_ns - tail_state_.submit_ns;
  if (submit_delta != 0) mask |= kMaskSubmit;

  buf_.push_back(mask);
  if ((mask & kMaskId) != 0) put_varint(buf_, zigzag(id_delta));
  if ((mask & kMaskShard) != 0) put_varint(buf_, r.shard);
  if ((mask & kMaskSectors) != 0) put_varint(buf_, r.sectors);
  if ((mask & kMaskFlags) != 0) buf_.push_back(r.flags);
  if ((mask & kMaskSubmit) != 0) put_varint(buf_, zigzag(submit_delta));

  put_varint(buf_, static_cast<std::uint64_t>(r.total_ns));
  std::uint8_t phase_mask = 0;
  for (std::size_t p = 0; p < kReqPhaseCount; ++p) {
    if (r.phase_ns[p] != 0) phase_mask |= static_cast<std::uint8_t>(1 << p);
  }
  buf_.push_back(phase_mask);
  for (std::size_t p = 0; p < kReqPhaseCount; ++p) {
    if (r.phase_ns[p] != 0) put_varint(buf_, static_cast<std::uint64_t>(r.phase_ns[p]));
  }

  tail_state_ = {r.id, r.shard, r.sectors, r.flags, r.submit_ns};
  ++count_;
}

FlightRecord FlightRecorder::decode(std::size_t& off, FieldState& state) const {
  FlightRecord r;
  const std::uint8_t mask = buf_[off++];
  state.id = (mask & kMaskId) != 0
                 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(state.id) +
                                              unzigzag(get_varint(buf_, off)))
                 : state.id + 1;
  if ((mask & kMaskShard) != 0) state.shard = static_cast<std::uint32_t>(get_varint(buf_, off));
  if ((mask & kMaskSectors) != 0)
    state.sectors = static_cast<std::uint32_t>(get_varint(buf_, off));
  if ((mask & kMaskFlags) != 0) state.flags = buf_[off++];
  if ((mask & kMaskSubmit) != 0) state.submit_ns += unzigzag(get_varint(buf_, off));

  r.id = state.id;
  r.shard = state.shard;
  r.sectors = state.sectors;
  r.flags = state.flags;
  r.submit_ns = state.submit_ns;
  r.total_ns = static_cast<std::int64_t>(get_varint(buf_, off));
  const std::uint8_t phase_mask = buf_[off++];
  for (std::size_t p = 0; p < kReqPhaseCount; ++p) {
    if ((phase_mask & (1 << p)) != 0)
      r.phase_ns[p] = static_cast<std::int64_t>(get_varint(buf_, off));
  }
  return r;
}

void FlightRecorder::drop_oldest() {
  if (count_ == 0) return;
  (void)decode(head_off_, head_state_);
  --count_;
  ++dropped_;
  (void)ring::compact(buf_, head_off_);
}

FlightRecord FlightRecorder::at(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("FlightRecorder::at");
  std::size_t off = head_off_;
  FieldState state = head_state_;
  FlightRecord r;
  for (std::size_t k = 0; k <= i; ++k) r = decode(off, state);
  return r;
}

void FlightRecorder::clear() {
  buf_.clear();
  head_off_ = 0;
  count_ = 0;
  dropped_ = 0;
  tail_state_ = FieldState{};
  head_state_ = FieldState{};
}

std::string FlightRecorder::dump_tail(std::size_t n) const {
  // Plain integers only — the dump is diffable across identical seeds.
  if (n > count_) n = count_;
  std::string out = "flight: " + std::to_string(count_) + " records retained, " +
                    std::to_string(dropped_) + " dropped, showing last " + std::to_string(n) +
                    "\n";
  // Skip forward to the first requested record, then stream the tail.
  std::size_t off = head_off_;
  FieldState state = head_state_;
  for (std::size_t k = 0; k < count_ - n; ++k) (void)decode(off, state);
  for (std::size_t k = 0; k < n; ++k) {
    const FlightRecord r = decode(off, state);
    out += "id=" + std::to_string(r.id);
    out += " shard=" + std::to_string(r.shard);
    out += " sectors=" + std::to_string(r.sectors);
    out += " flags=";
    out += (r.flags & FlightRecord::kFlagDirect) != 0 ? 'D' : '-';
    out += (r.flags & FlightRecord::kFlagRecovered) != 0 ? 'R' : '-';
    out += " submit=" + std::to_string(r.submit_ns);
    out += " total=" + std::to_string(r.total_ns);
    for (std::size_t p = 0; p < kReqPhaseCount; ++p) {
      if (r.phase_ns[p] == 0) continue;
      out += ' ';
      out += req_phase_name(static_cast<ReqPhase>(p));
      out += '=' + std::to_string(r.phase_ns[p]);
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// ReqTracker
// ---------------------------------------------------------------------------

ReqTracker::ReqTracker(Obs& obs, Options options)
    : flight_(&obs.flight), shard_(options.shard) {
  const std::string& p = options.metric_prefix;
  h_total_ = &obs.metrics.histogram(p + "req.total_ns");
  for (std::size_t i = 0; i < kReqPhaseCount; ++i)
    h_phase_[i] =
        &obs.metrics.histogram(p + "req.phase." + req_phase_name(static_cast<ReqPhase>(i)));
  c_mismatch_ = &obs.metrics.counter(p + "req.mismatch");
}

std::uint64_t ReqTracker::open(sim::TimePoint submit, std::uint32_t sectors, bool direct) {
  const std::uint64_t id = next_id_++;
  Ctx ctx;
  ctx.submit = submit;
  ctx.last = submit;
  ctx.sectors = sectors;
  ctx.flags = direct ? FlightRecord::kFlagDirect : std::uint8_t{0};
  open_.emplace(id, ctx);
  return id;
}

void ReqTracker::apply(Ctx& ctx, ReqPhase phase, std::int64_t ns) {
  if (ns < 0) ns = 0;
  const auto p = static_cast<std::size_t>(phase);
  ctx.phase_ns[p] += ns;
  ctx.stamped_mask |= static_cast<std::uint8_t>(1 << p);
}

void ReqTracker::stamp(std::uint64_t id, ReqPhase phase, sim::TimePoint now) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Ctx& ctx = it->second;
  apply(ctx, phase, (now - ctx.last).ns());
  ctx.last = now;
}

void ReqTracker::stamp_service(std::uint64_t id, sim::Duration position_estimate,
                               sim::TimePoint now) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Ctx& ctx = it->second;
  const std::int64_t interval = std::max<std::int64_t>((now - ctx.last).ns(), 0);
  const std::int64_t pos = std::clamp<std::int64_t>(position_estimate.ns(), 0, interval);
  apply(ctx, ReqPhase::kPosition, pos);
  apply(ctx, ReqPhase::kTransfer, interval - pos);
  ctx.last = now;
}

void ReqTracker::finish(std::uint64_t id, sim::TimePoint now) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Ctx& ctx = it->second;

  const std::int64_t total = std::max<std::int64_t>((now - ctx.submit).ns(), 0);
  std::int64_t stamped = 0;
  for (const std::int64_t ns : ctx.phase_ns) stamped += ns;
  if (stamped != total || ctx.last != now) {
    // The stamps do not partition [submit, now) — a wiring bug, surfaced
    // by the driver's `req.attribution` audit check.
    ++mismatches_;
    c_mismatch_->inc();
  }

  h_total_->record(total);
  for (std::size_t p = 0; p < kReqPhaseCount; ++p) {
    if ((ctx.stamped_mask & (1 << p)) != 0) h_phase_[p]->record(ctx.phase_ns[p]);
  }

  FlightRecord r;
  r.id = id;
  r.shard = shard_;
  r.sectors = ctx.sectors;
  r.flags = ctx.flags;
  r.submit_ns = ctx.submit.ns();
  r.total_ns = total;
  std::copy(std::begin(ctx.phase_ns), std::end(ctx.phase_ns), std::begin(r.phase_ns));
  flight_->push(r);

  open_.erase(it);
  ++finished_;
}

void ReqTracker::abandon_all() {
  open_.clear();
}

std::int64_t ReqTracker::phase_ns_total() const {
  std::int64_t sum = 0;
  for (const Histogram* h : h_phase_) sum += h->sum();
  return sum;
}

}  // namespace trail::obs
