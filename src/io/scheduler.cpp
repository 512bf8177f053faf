#include "io/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

namespace trail::io {

namespace {

/// Batch envelopes touch or overlap, and the merged batch would respect
/// both caps. Adjacency (a.end == b.lba) is enough: the merged sub-range
/// union stays contiguous, so DeviceQueue can issue it as one command.
bool mergeable(const PendingIo& a, const PendingIo& b) {
  if (a.ranges.empty() || b.ranges.empty()) return false;
  if (a.ranges.size() + b.ranges.size() > std::min(a.merge_cap, b.merge_cap)) return false;
  return a.lba <= b.lba + b.count && b.lba <= a.lba + a.count;
}

/// Fold `io`'s ranges into `target`, growing the envelope. Keeps
/// `target`'s ranges first so the dispatch-time absorb rule ("a range
/// fully covered by earlier survivors is redundant") sees them in
/// submission order within each original batch.
void merge_into(PendingIo& target, PendingIo io) {
  const disk::Lba end = std::max(target.lba + target.count, io.lba + io.count);
  target.lba = std::min(target.lba, io.lba);
  target.count = static_cast<std::uint32_t>(end - target.lba);
  target.seq = std::min(target.seq, io.seq);
  for (auto& r : io.ranges) target.ranges.push_back(std::move(r));
  if (!target.on_dispatch) target.on_dispatch = std::move(io.on_dispatch);
}

/// The read class's pick from `reads` (oldest first): the oldest once it
/// has waited past the deadline, else the read predicted to position
/// soonest, ties to the oldest. Sets `rule` when the pick is not simply
/// the oldest of several.
std::deque<PendingIo>::iterator pick_read(std::deque<PendingIo>& reads, const HeadState& head,
                                          Pick::Rule& rule) {
  const auto oldest = reads.begin();
  if (reads.size() == 1 || !head.position) return oldest;
  if (head.now - oldest->queued_at > head.deadline) {
    rule = Pick::Rule::kDeadline;
    return oldest;
  }
  auto best = oldest;
  sim::Duration best_time = head.position(oldest->lba);
  for (auto it = std::next(oldest); it != reads.end(); ++it) {
    const sim::Duration t = head.position(it->lba);
    if (t < best_time) {
      best = it;
      best_time = t;
    }
  }
  if (best != oldest) rule = Pick::Rule::kCloser;
  return best;
}

/// The one scheduler behind every policy. Classes below `first_sorted`
/// are deques (DeviceQueue stamps `seq` in push order, so the front is
/// the oldest request), served from the front or, with `writeback` set,
/// by pick_read; the others are CSCAN-ordered maps. With `writeback`
/// set, the sorted classes coalesce batched write-backs; otherwise
/// nothing merges.
class IndexedScheduler final : public IoScheduler {
 public:
  IndexedScheduler(std::int64_t first_sorted, bool writeback)
      : first_sorted_(first_sorted), writeback_(writeback) {}

  void push(PendingIo io) override {
    Class& c = classes_[io.priority];
    ++size_;
    if (io.priority < first_sorted_) {
      c.arrived.push_back(std::move(io));
      return;
    }
    c.widest = std::max(c.widest, io.count);
    const Key key{io.lba, next_stamp_++};
    c.sorted.emplace(key, std::move(io));
  }

  [[nodiscard]] bool empty() const override { return size_ == 0; }
  [[nodiscard]] std::size_t size() const override { return size_; }

  Pick pop_next(const HeadState& head) override {
    // Classes are erased as they drain, so the first one holds work.
    const auto cls = classes_.begin();
    Class& c = cls->second;
    Pick pick;
    if (!c.arrived.empty()) {
      const auto it = writeback_ ? pick_read(c.arrived, head, pick.rule) : c.arrived.begin();
      pick.io = std::move(*it);
      c.arrived.erase(it);
    } else {
      // Next envelope at or beyond the head, else wrap to the lowest.
      auto it = c.sorted.lower_bound(Key{head.lba, 0});
      if (it == c.sorted.end()) it = c.sorted.begin();
      pick.io = std::move(it->second);
      c.sorted.erase(it);
    }
    if (c.arrived.empty() && c.sorted.empty()) classes_.erase(cls);
    --size_;
    return pick;
  }

  [[nodiscard]] int next_priority() const override { return classes_.begin()->first; }

  bool try_merge(PendingIo& io) override {
    if (!writeback_ || io.ranges.empty() || io.merge_cap <= 1 || io.priority < first_sorted_)
      return false;
    const auto cls = classes_.find(io.priority);
    if (cls == classes_.end()) return false;
    Class& c = cls->second;
    auto target = c.earliest_mergeable(io, c.sorted.end());
    if (target == c.sorted.end()) return false;
    merge_into(target->second, std::move(io));
    // Cascade: the grown envelope may now bridge to further queued batches.
    for (auto other = c.earliest_mergeable(target->second, target); other != c.sorted.end();
         other = c.earliest_mergeable(target->second, target)) {
      PendingIo absorbed = std::move(other->second);
      c.sorted.erase(other);
      --size_;
      merge_into(target->second, std::move(absorbed));
    }
    // Re-key under the grown envelope's LBA; the stamp (queue position)
    // stays, as a merge target keeps its place in line.
    auto node = c.sorted.extract(target);
    node.key().first = node.mapped().lba;
    c.widest = std::max(c.widest, node.mapped().count);
    c.sorted.insert(std::move(node));
    return true;
  }

 private:
  using Key = std::pair<disk::Lba, std::uint64_t>;  // (envelope LBA, stamp)
  using Sorted = std::map<Key, PendingIo>;

  struct Class {
    std::deque<PendingIo> arrived;  // unsorted classes, oldest first
    Sorted sorted;
    /// Largest envelope queued since the class was created: every
    /// envelope overlapping or touching [lba, lba + count) starts in
    /// [lba - widest, lba + count].
    std::uint32_t widest = 0;

    /// The earliest-queued batch mergeable with `io`, other than `self`.
    Sorted::iterator earliest_mergeable(const PendingIo& io, Sorted::iterator self) {
      const disk::Lba lo = io.lba > widest ? io.lba - widest : 0;
      auto best = sorted.end();
      for (auto it = sorted.lower_bound(Key{lo, 0});
           it != sorted.end() && it->first.first <= io.lba + io.count; ++it) {
        if (it == self || !mergeable(it->second, io)) continue;
        if (best == sorted.end() || it->first.second < best->first.second) best = it;
      }
      return best;
    }
  };

  std::int64_t first_sorted_;
  bool writeback_;
  std::map<int, Class> classes_;
  std::uint64_t next_stamp_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

std::unique_ptr<IoScheduler> make_fifo_scheduler() {
  return std::make_unique<IndexedScheduler>(std::numeric_limits<std::int64_t>::max(), false);
}
std::unique_ptr<IoScheduler> make_clook_scheduler() {
  return std::make_unique<IndexedScheduler>(std::numeric_limits<std::int64_t>::min(), false);
}
std::unique_ptr<IoScheduler> make_writeback_scheduler() {
  return std::make_unique<IndexedScheduler>(1, true);
}

}  // namespace trail::io
