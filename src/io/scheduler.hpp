// Per-device I/O scheduling policies.
//
// The standard-baseline driver uses C-LOOK (the Linux elevator of the
// paper's era); Trail's write-back path keeps reads above writes ("data
// disk reads are given higher priority than data disk writes", §4.3),
// serves the read class by predicted positioning time, and CSCAN-orders
// the write class, coalescing adjacent/overlapping queued write-backs
// into one multi-range device command (§4.2). Priority classes are part
// of the scheduler interface so all policies fall out of one mechanism.
//
// One indexed implementation serves every policy: an arrival-order class
// is a deque served from its front; a CSCAN-ordered class is a map keyed
// by (envelope LBA, queue position), so dispatch is one lower_bound from
// the head and equal LBAs go to the earliest-queued request. Coalescing
// examines only the envelopes that start within one
// largest-queued-envelope of the arrival. Only the write-back policy's
// read class is scanned whole at each pick: it holds about one read per
// waiting transaction, where the write class holds thousands.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "disk/types.hpp"
#include "sim/time.hpp"

namespace trail::io {

/// One sector-run request awaiting dispatch to a DiskDevice.
struct PendingIo {
  bool is_write = false;
  disk::Lba lba = 0;
  std::uint32_t count = 0;
  std::vector<std::byte> data;        // write payload (owned)
  std::span<std::byte> out;           // read destination (caller-owned)
  int priority = 0;                   // lower value = dispatched first
  std::uint64_t seq = 0;              // submission order (DeviceQueue stamps it)
  sim::TimePoint queued_at{};         // DeviceQueue stamps it; the read deadline runs from here
  std::function<void()> on_complete;

  /// One constituent dirty range of a batched write-back. Each range
  /// keeps its own lifecycle closures so a merged device command still
  /// settles every record exactly once and releases exactly the pins its
  /// enqueue took.
  struct WbRange {
    disk::Lba lba = 0;
    std::uint32_t count = 0;
    /// Pure predicate, checked at dispatch: the range's content is already
    /// durable (superseded by a newer overlapping write that hit the
    /// platter first), so it drops out of the merged command.
    std::function<bool()> settled;
    /// Cleanup when the range drops out of its dispatch (settled, or
    /// absorbed by overlapping survivors of the same batch): release the
    /// enqueue's pins and count the skip.
    std::function<void()> skipped;
    /// Snapshot the *latest* buffered content of the range into `out` at
    /// dispatch, which is how superseded queued write-backs collapse into
    /// one physical write (§4.2).
    std::function<void(std::span<std::byte> out)> fill;
    /// The platter write covering the range completed: mark durable,
    /// release pins, count the dispatch.
    std::function<void()> done;
  };

  /// Non-empty marks this request as a batched write-back. `lba`/`count`
  /// then describe the *envelope* of the batch; the union of the ranges is
  /// contiguous and equals the envelope (merging only ever joins
  /// adjacent/overlapping envelopes). `data`/`out`/`on_complete` are
  /// unused on this path — DeviceQueue dispatches via the per-range
  /// closures instead.
  std::vector<WbRange> ranges;
  /// Max constituent ranges a batch may grow to via in-queue merging;
  /// 1 disables coalescing for this request.
  std::uint32_t merge_cap = 1;
  /// Called once per physical device command issued for this batch, with
  /// the number of constituent ranges it carries and its sector count.
  std::function<void(std::uint32_t ranges, std::uint32_t sectors)> on_dispatch;
};

/// What a pick knows of the device.
struct HeadState {
  /// First LBA of the track under the head: the CSCAN and C-LOOK classes
  /// sweep on from here.
  disk::Lba lba = 0;
  /// The rest serves the write-back policy's read class. Its oldest read
  /// goes first once it has waited longer than `deadline` at `now`.
  sim::TimePoint now{};
  sim::Duration deadline{};
  /// Predicted positioning time (command overhead + seek + rotational
  /// wait) of a command starting at an LBA, issued at `now`. Empty while
  /// nothing predicts the head; reads then go in arrival order.
  std::function<sim::Duration(disk::Lba)> position;
};

/// A request pop_next removed, and the rule that chose it.
struct Pick {
  enum class Rule : std::uint8_t {
    kOrder,     // its class's own order: the oldest, or the sweep's next
    kCloser,    // read class: predicted to position sooner than an older read
    kDeadline,  // read class: the oldest, overdue, ahead of other reads
  };
  PendingIo io;
  Rule rule = Rule::kOrder;
};

class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void push(PendingIo io) = 0;
  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Remove and return the next request to dispatch, given the head's
  /// state. Must only be called when !empty().
  virtual Pick pop_next(const HeadState& head) = 0;

  /// Priority class of the request pop_next would return. Must only be
  /// called when !empty().
  [[nodiscard]] virtual int next_priority() const = 0;

  /// Try to fold `io` (a batched write-back) into a queued batch of the
  /// same priority class whose envelope is adjacent or overlapping,
  /// respecting both batches' merge caps; cascades if the grown envelope
  /// now touches further queued batches. Each step joins the
  /// earliest-queued mergeable batch, and the target keeps its queue
  /// position. Returns true when `io` was consumed. Only the write-back
  /// policy's CSCAN-ordered classes merge.
  virtual bool try_merge(PendingIo& io) = 0;
};

/// Strict arrival order within each priority class.
std::unique_ptr<IoScheduler> make_fifo_scheduler();

/// C-LOOK elevator within each priority class: service ascending LBAs from
/// the head position, wrapping to the lowest pending LBA.
std::unique_ptr<IoScheduler> make_clook_scheduler();

/// Trail's data-disk policy (§4.2–§4.3): priority class 0 (reads) above
/// all write-back classes, served by predicted positioning time — the
/// read with the least `HeadState::position` goes first, ties to the
/// oldest, unless the oldest has waited past `HeadState::deadline`, when
/// it goes first; classes >= 1 (write-backs, recovery's phase-3 runs
/// among them) CSCAN-ordered by envelope LBA, with adjacent/overlapping
/// batched write-backs coalesced in-queue (try_merge) up to each batch's
/// merge cap.
std::unique_ptr<IoScheduler> make_writeback_scheduler();

}  // namespace trail::io
