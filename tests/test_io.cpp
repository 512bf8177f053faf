#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/device_queue.hpp"
#include "io/scheduler.hpp"
#include "io/standard_driver.hpp"
#include "sim/random.hpp"

namespace trail::io {
namespace {

/// The request `sched` dispatches next with the head at `head`.
PendingIo pop(IoScheduler& sched, disk::Lba head) {
  HeadState at;
  at.lba = head;
  return sched.pop_next(at).io;
}

PendingIo make_write(disk::Lba lba, std::function<void()> cb = {}, int priority = 0) {
  PendingIo io;
  io.is_write = true;
  io.lba = lba;
  io.count = 1;
  io.data.assign(disk::kSectorSize, std::byte{0x5A});
  io.priority = priority;
  io.on_complete = std::move(cb);
  return io;
}

TEST(FifoScheduler, PopsInSubmissionOrder) {
  auto sched = make_fifo_scheduler();
  for (std::uint64_t i = 0; i < 5; ++i) {
    PendingIo io = make_write(100 - i);
    io.seq = i;
    sched->push(std::move(io));
  }
  EXPECT_EQ(sched->size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const PendingIo io = pop(*sched, /*head=*/0);
    EXPECT_EQ(io.seq, i);
  }
  EXPECT_TRUE(sched->empty());
}

TEST(FifoScheduler, PriorityClassesDrainInOrder) {
  auto sched = make_fifo_scheduler();
  PendingIo low = make_write(1, {}, /*priority=*/1);
  low.seq = 0;
  sched->push(std::move(low));
  PendingIo high = make_write(2, {}, /*priority=*/0);
  high.seq = 1;
  sched->push(std::move(high));
  EXPECT_EQ(pop(*sched, 0).priority, 0) << "reads (class 0) before writes (class 1)";
  EXPECT_EQ(pop(*sched, 0).priority, 1);
}

TEST(ClookScheduler, ServesAscendingFromHeadThenWraps) {
  auto sched = make_clook_scheduler();
  for (const disk::Lba lba : {50u, 10u, 70u, 30u, 90u}) sched->push(make_write(lba));
  // Head at 40: expect 50, 70, 90, then wrap to 10, 30.
  std::vector<disk::Lba> order;
  while (!sched->empty()) order.push_back(pop(*sched, 40).lba);
  EXPECT_EQ(order, (std::vector<disk::Lba>{50, 70, 90, 10, 30}));
}

TEST(ClookScheduler, ExactHeadPositionIncluded) {
  auto sched = make_clook_scheduler();
  sched->push(make_write(40));
  sched->push(make_write(39));
  EXPECT_EQ(pop(*sched, 40).lba, 40u);
  EXPECT_EQ(pop(*sched, 40).lba, 39u);
}

// ---------------------------------------------------------------------------
// Differential check: the indexed schedulers against the list-scan model
// ---------------------------------------------------------------------------

/// The list-scan scheduler the indexed implementation replaced, kept as
/// the reference model. Requests sit in one std::list per priority class;
/// a read-class pick and a CSCAN pick each scan the whole class, and
/// try_merge joins the first mergeable batch in list order, then cascades
/// by rescanning. `writeback` selects the write-back policy (class 0 by
/// predicted positioning time under a deadline, classes >= 1 CSCAN with
/// coalescing); otherwise C-LOOK in every class.
class ListScheduler final : public IoScheduler {
 public:
  explicit ListScheduler(bool writeback) : writeback_(writeback) {}

  void push(PendingIo io) override {
    classes_[io.priority].push_back(std::move(io));
    ++size_;
  }
  [[nodiscard]] bool empty() const override { return size_ == 0; }
  [[nodiscard]] std::size_t size() const override { return size_; }

  Pick pop_next(const HeadState& head) override {
    auto cls = classes_.begin();
    while (cls->second.empty()) cls = classes_.erase(cls);
    Bucket& bucket = cls->second;
    Pick out;
    auto pick = bucket.begin();
    if (writeback_ && cls->first <= 0) {
      // The oldest once it has waited past the deadline; otherwise the
      // least predicted positioning time, ties to the oldest.
      auto oldest = bucket.begin();
      for (auto it = bucket.begin(); it != bucket.end(); ++it)
        if (it->seq < oldest->seq) oldest = it;
      pick = oldest;
      if (bucket.size() > 1 && head.position) {
        if (head.now - oldest->queued_at > head.deadline) {
          out.rule = Pick::Rule::kDeadline;
        } else {
          for (auto it = bucket.begin(); it != bucket.end(); ++it) {
            const sim::Duration t = head.position(it->lba);
            const sim::Duration best = head.position(pick->lba);
            if (t < best || (t == best && it->seq < pick->seq)) pick = it;
          }
          if (pick != oldest) out.rule = Pick::Rule::kCloser;
        }
      }
    } else {
      auto best = bucket.end();
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (it->lba < pick->lba) pick = it;
        if (it->lba >= head.lba && (best == bucket.end() || it->lba < best->lba)) best = it;
      }
      if (best != bucket.end()) pick = best;
    }
    out.io = std::move(*pick);
    bucket.erase(pick);
    --size_;
    return out;
  }

  [[nodiscard]] int next_priority() const override {
    for (const auto& [priority, bucket] : classes_)
      if (!bucket.empty()) return priority;
    return 0;
  }

  bool try_merge(PendingIo& io) override {
    if (!writeback_ || io.ranges.empty() || io.merge_cap <= 1) return false;
    auto cls = classes_.find(io.priority);
    if (cls == classes_.end()) return false;
    Bucket& bucket = cls->second;
    auto target = std::find_if(bucket.begin(), bucket.end(),
                               [&](const PendingIo& q) { return mergeable(q, io); });
    if (target == bucket.end()) return false;
    merge_into(*target, std::move(io));
    for (bool merged = true; merged;) {
      merged = false;
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (it == target || !mergeable(*target, *it)) continue;
        PendingIo other = std::move(*it);
        bucket.erase(it);
        --size_;
        merge_into(*target, std::move(other));
        merged = true;
        break;
      }
    }
    return true;
  }

  /// Queued requests of class `priority` (situation coverage).
  [[nodiscard]] std::vector<const PendingIo*> queued(int priority) const {
    std::vector<const PendingIo*> out;
    const auto cls = classes_.find(priority);
    if (cls != classes_.end())
      for (const PendingIo& io : cls->second) out.push_back(&io);
    return out;
  }

 private:
  using Bucket = std::list<PendingIo>;

  static bool mergeable(const PendingIo& a, const PendingIo& b) {
    if (a.ranges.empty() || b.ranges.empty()) return false;
    if (a.ranges.size() + b.ranges.size() > std::min(a.merge_cap, b.merge_cap)) return false;
    return a.lba <= b.lba + b.count && b.lba <= a.lba + a.count;
  }

  static void merge_into(PendingIo& target, PendingIo io) {
    const disk::Lba end = std::max(target.lba + target.count, io.lba + io.count);
    target.lba = std::min(target.lba, io.lba);
    target.count = static_cast<std::uint32_t>(end - target.lba);
    target.seq = std::min(target.seq, io.seq);
    for (auto& r : io.ranges) target.ranges.push_back(std::move(r));
    if (!target.on_dispatch) target.on_dispatch = std::move(io.on_dispatch);
  }

  bool writeback_;
  std::map<int, Bucket> classes_;
  std::size_t size_ = 0;
};

/// Drives the indexed scheduler and the list-scan model through one
/// seeded random sequence of submit (try_merge, else push) / pop_next
/// calls over a narrow LBA space, asserting identical results after every
/// call. Each write-back range logs its id through its `skipped` closure,
/// which the checker invokes on pop to compare the per-batch range order.
/// A virtual clock advances with every call; each pop hands both the
/// same positioning function, which takes few values so that ties occur.
class SchedulerDiff {
 public:
  struct Coverage {
    int equal_lba_pushes = 0;    // arrived with a queued envelope at the same LBA
    int capped_overlaps = 0;     // arrived touching a batch the caps keep apart
    int cascades = 0;            // merges that also absorbed a queued batch
    int heads_past_end = 0;      // pops with the head beyond every queued LBA
    int merges = 0;
    int closer_picks = 0;        // class-0 picks ahead of an older request
    int deadline_picks = 0;      // class-0 picks of the overdue oldest
    int tied_picks = 0;          // class-0 picks whose least time several share
    int unpredicted_picks = 0;   // class-0 picks among several, with no predictor
  };

  SchedulerDiff(std::unique_ptr<IoScheduler> indexed, bool writeback, std::uint64_t seed)
      : indexed_(std::move(indexed)), model_(writeback), writeback_(writeback), rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      now_ = now_ + sim::micros(rng_.uniform(0, 3));
      // Bias toward submits early so a backlog builds, then drain.
      const bool filling = i < ops / 2;
      const std::int64_t roll = rng_.uniform(0, 99);
      if (indexed_->empty() || roll < (filling ? 65 : 35))
        submit();
      else
        pop();
      ASSERT_EQ(indexed_->size(), model_.size()) << "op " << i;
      ASSERT_EQ(indexed_->empty(), model_.empty()) << "op " << i;
    }
    while (!model_.empty()) pop();
    EXPECT_TRUE(indexed_->empty());
  }

  [[nodiscard]] const Coverage& coverage() const { return cov_; }

 private:
  static constexpr std::int64_t kLbaSpace = 160;
  static constexpr sim::Duration kDeadline = sim::micros(6);

  PendingIo make_request() {
    PendingIo io;
    io.seq = next_seq_++;
    io.queued_at = now_;
    io.is_write = true;
    io.lba = static_cast<disk::Lba>(rng_.uniform(0, kLbaSpace));
    io.count = static_cast<std::uint32_t>(rng_.uniform(1, 8));
    const std::int64_t kind = rng_.uniform(0, 9);
    if (kind < 2) {
      // Urgent plain request (reads, recovery writes) at class 0.
      io.is_write = kind == 0;
      return io;
    }
    if (!writeback_ || kind == 2) {
      io.priority = writeback_ ? 1 : static_cast<int>(rng_.uniform(0, 2));
      return io;  // plain request: never merges
    }
    io.priority = 1;
    static constexpr std::uint32_t kCaps[] = {1, 2, 3, 4, 32};
    io.merge_cap = kCaps[rng_.uniform(0, 4)];
    PendingIo::WbRange range;
    range.lba = io.lba;
    range.count = io.count;
    const int id = next_range_id_++;
    range.skipped = [this, id] { popped_ranges_.push_back(id); };
    io.ranges.push_back(std::move(range));
    return io;
  }

  void submit() {
    PendingIo io = make_request();
    if (!io.ranges.empty()) {
      for (const PendingIo* q : model_.queued(io.priority)) {
        if (q->ranges.empty()) continue;
        if (q->lba == io.lba) ++cov_.equal_lba_pushes;
        const bool touches = q->lba <= io.lba + io.count && io.lba <= q->lba + q->count;
        const bool capped =
            q->ranges.size() + io.ranges.size() > std::min(q->merge_cap, io.merge_cap);
        if (touches && capped) ++cov_.capped_overlaps;
      }
    }
    const std::size_t before = model_.size();
    PendingIo copy = io;
    const bool merged_model = model_.try_merge(io);
    const bool merged_indexed = indexed_->try_merge(copy);
    ASSERT_EQ(merged_indexed, merged_model) << "seq " << copy.seq;
    if (merged_model) {
      ++cov_.merges;
      if (model_.size() < before) ++cov_.cascades;
      return;
    }
    model_.push(std::move(io));
    indexed_->push(std::move(copy));
  }

  void pop() {
    disk::Lba head = 0;
    const std::int64_t where = rng_.uniform(0, 9);
    if (where == 0) {
      head = kLbaSpace + 100;  // past the highest LBA: wrap to the lowest
      ++cov_.heads_past_end;
    } else {
      head = static_cast<disk::Lba>(rng_.uniform(0, kLbaSpace + 8));
    }
    HeadState at;
    at.lba = head;
    at.now = now_;
    at.deadline = kDeadline;
    // Three in four pops predict; the prediction depends on the head, the
    // target and the pop, and takes one of four values.
    const std::uint64_t salt = ++pops_;
    if (rng_.uniform(0, 3) != 0)
      at.position = [head, salt](disk::Lba lba) {
        return sim::micros(static_cast<std::int64_t>((lba * 7 + head * 3 + salt) % 4));
      };
    ASSERT_EQ(indexed_->next_priority(), model_.next_priority());
    if (writeback_ && indexed_->next_priority() == 0) note_read_pick(at);
    Pick pa = indexed_->pop_next(at);
    Pick pb = model_.pop_next(at);
    ASSERT_EQ(pa.rule, pb.rule) << "seq " << pb.io.seq;
    if (pb.rule == Pick::Rule::kCloser) ++cov_.closer_picks;
    if (pb.rule == Pick::Rule::kDeadline) ++cov_.deadline_picks;
    PendingIo a = std::move(pa.io);
    PendingIo b = std::move(pb.io);
    ASSERT_EQ(a.seq, b.seq) << "head " << head;
    ASSERT_EQ(a.priority, b.priority);
    ASSERT_EQ(a.is_write, b.is_write);
    ASSERT_EQ(a.lba, b.lba);
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.ranges.size(), b.ranges.size());
    popped_ranges_.clear();
    for (auto& r : a.ranges) r.skipped();
    const std::vector<int> order_a = popped_ranges_;
    popped_ranges_.clear();
    for (auto& r : b.ranges) r.skipped();
    ASSERT_EQ(order_a, popped_ranges_) << "range order of batch seq " << a.seq;
  }

  /// Situation coverage of a class-0 pick about to be made under `at`.
  void note_read_pick(const HeadState& at) {
    const std::vector<const PendingIo*> reads = model_.queued(0);
    if (reads.size() < 2) return;
    if (!at.position) {
      ++cov_.unpredicted_picks;
      return;
    }
    sim::Duration least = at.position(reads.front()->lba);
    for (const PendingIo* r : reads) least = std::min(least, at.position(r->lba));
    int sharing = 0;
    for (const PendingIo* r : reads) sharing += at.position(r->lba) == least ? 1 : 0;
    if (sharing > 1) ++cov_.tied_picks;
  }

  std::unique_ptr<IoScheduler> indexed_;
  ListScheduler model_;
  bool writeback_;
  sim::Rng rng_;
  sim::TimePoint now_{};
  std::uint64_t pops_ = 0;
  std::uint64_t next_seq_ = 0;
  int next_range_id_ = 0;
  std::vector<int> popped_ranges_;
  Coverage cov_;
};

TEST(SchedulerDiff, WritebackMatchesListScanModel) {
  SchedulerDiff::Coverage total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SchedulerDiff diff(make_writeback_scheduler(), /*writeback=*/true, seed);
    diff.run(1500);
    if (HasFatalFailure()) return;
    const SchedulerDiff::Coverage& c = diff.coverage();
    total.equal_lba_pushes += c.equal_lba_pushes;
    total.capped_overlaps += c.capped_overlaps;
    total.cascades += c.cascades;
    total.heads_past_end += c.heads_past_end;
    total.merges += c.merges;
    total.closer_picks += c.closer_picks;
    total.deadline_picks += c.deadline_picks;
    total.tied_picks += c.tied_picks;
    total.unpredicted_picks += c.unpredicted_picks;
  }
  // The sequences reach every situation the index must reproduce.
  EXPECT_GT(total.equal_lba_pushes, 100);
  EXPECT_GT(total.capped_overlaps, 100);
  EXPECT_GT(total.cascades, 100);
  EXPECT_GT(total.heads_past_end, 100);
  EXPECT_GT(total.merges, 1000);
  EXPECT_GT(total.closer_picks, 100);
  EXPECT_GT(total.deadline_picks, 100);
  EXPECT_GT(total.tied_picks, 100);
  EXPECT_GT(total.unpredicted_picks, 100);
  RecordProperty("closer_picks", total.closer_picks);
  RecordProperty("deadline_picks", total.deadline_picks);
}

TEST(SchedulerDiff, ClookMatchesListScanModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SchedulerDiff diff(make_clook_scheduler(), /*writeback=*/false, seed);
    diff.run(1500);
    if (HasFatalFailure()) return;
    EXPECT_GT(diff.coverage().heads_past_end, 10);
  }
}

class DeviceQueueTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskDevice dev{sim, disk::small_test_disk()};
};

TEST_F(DeviceQueueTest, DispatchesOneAtATime) {
  DeviceQueue queue(dev, make_fifo_scheduler());
  int done = 0;
  for (int i = 0; i < 4; ++i) queue.submit(make_write(static_cast<disk::Lba>(i * 10),
                                                      [&done] { ++done; }));
  EXPECT_EQ(queue.queued(), 3u) << "one on the device, three queued";
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_TRUE(queue.idle());
}

TEST_F(DeviceQueueTest, IdleCallbackFires) {
  DeviceQueue queue(dev, make_fifo_scheduler());
  int idle_calls = 0;
  queue.set_idle_callback([&] { ++idle_calls; });
  queue.submit(make_write(0));
  queue.submit(make_write(10));
  sim.run();
  EXPECT_EQ(idle_calls, 1);
}

TEST_F(DeviceQueueTest, CommandOutlivingItsQueueCompletesAsNoOp) {
  auto queue = std::make_unique<DeviceQueue>(dev, make_fifo_scheduler());
  int done = 0;
  queue->submit(make_write(0, [&done] { ++done; }));
  queue->submit(make_write(10, [&done] { ++done; }));
  ASSERT_EQ(queue->queued(), 1u) << "one on the device, one queued";
  queue.reset();
  sim.run();
  // The device finishes the command it holds; the queue's completion,
  // and with it the callback and the next dispatch, never runs.
  EXPECT_EQ(done, 0);
  EXPECT_TRUE(dev.store().is_written(0));
  EXPECT_FALSE(dev.store().is_written(10));
}

// ---------------------------------------------------------------------------
// Anticipation: a worse class waits one command overhead after a command
// ---------------------------------------------------------------------------

/// A Trail data disk's queue: reads at class 0, write-backs at class 1.
class AnticipationTest : public ::testing::Test {
 protected:
  PendingIo make_read(disk::Lba lba, std::function<void()> cb) {
    PendingIo io;
    io.lba = lba;
    io.count = 1;
    io.out = buf_;
    io.on_complete = std::move(cb);
    return io;
  }
  PendingIo make_writeback(disk::Lba lba, std::function<void()> cb) {
    return make_write(lba, std::move(cb), /*priority=*/1);
  }
  /// Step until `flag` is set; the step that sets it also runs the
  /// queue's dispatch decision after the completion.
  void step_until(const bool& flag) {
    while (!flag) ASSERT_TRUE(sim.step()) << "simulation stalled";
  }
  std::uint64_t holds() { return obs.metrics.counter("io.anticipation_holds").value(); }
  std::uint64_t hits() { return obs.metrics.counter("io.anticipation_hits").value(); }

  sim::Simulator sim;
  disk::DiskDevice dev{sim, disk::wd_caviar_10g()};
  obs::Obs obs{sim};
  const sim::Duration overhead = dev.profile().command_overhead;

 private:
  std::vector<std::byte> buf_ = std::vector<std::byte>(disk::kSectorSize);
};

TEST_F(AnticipationTest, ReadArrivingInTheHoldGoesBeforeTheWriteback) {
  DeviceQueue queue(dev, make_writeback_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  std::vector<std::string> order;
  queue.submit(make_read(1'000, [&] {
    order.emplace_back("read1");
    sim.schedule(sim::micros(200), [&] {
      queue.submit(make_read(5'000'000, [&] { order.emplace_back("read2"); }));
    });
  }));
  queue.submit(make_writeback(9'000'000, [&] { order.emplace_back("writeback"); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"read1", "read2", "writeback"}));
  EXPECT_EQ(holds(), 2u) << "after each read";
  EXPECT_EQ(hits(), 1u) << "the second read ended the first hold";
}

TEST_F(AnticipationTest, WritebackDispatchesOneCommandOverheadAfterTheRead) {
  DeviceQueue queue(dev, make_writeback_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  obs.tracer.set_enabled(true);
  bool read_done = false;
  queue.submit(make_read(1'000, [&] { read_done = true; }));
  queue.submit(make_writeback(9'000'000, {}));
  step_until(read_done);
  const sim::TimePoint completed = sim.now();
  EXPECT_EQ(queue.queued(), 1u);
  sim.run_until(completed + overhead - sim::nanos(1));
  EXPECT_EQ(queue.queued(), 1u) << "still held";
  sim.run_until(completed + overhead);
  EXPECT_EQ(queue.queued(), 0u) << "dispatched as the window closes";
  sim.run();
  EXPECT_EQ(holds(), 1u);
  EXPECT_EQ(hits(), 0u);
  std::size_t hold_instants = 0;
  for (std::size_t i = 0; i < obs.tracer.size(); ++i)
    if (std::string_view(obs.tracer.at(i).name) == "io.hold") ++hold_instants;
  EXPECT_EQ(hold_instants, 1u);
  EXPECT_TRUE(queue.idle());
}

TEST_F(AnticipationTest, SingleClassQueueNeverHolds) {
  DeviceQueue queue(dev, make_clook_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  bool read_done = false;
  bool write_done = false;
  queue.submit(make_read(1'000, [&] { read_done = true; }));
  queue.submit(make_write(9'000'000, [&] { write_done = true; }));
  step_until(read_done);
  EXPECT_EQ(queue.queued(), 0u) << "the write went out at the read's completion";
  step_until(write_done);
  EXPECT_EQ(holds(), 0u);
}

TEST_F(AnticipationTest, QueueDestroyedDuringAHoldLeavesAnInertTimer) {
  auto queue = std::make_unique<DeviceQueue>(dev, make_writeback_scheduler());
  bool read_done = false;
  bool wb_done = false;
  queue->submit(make_read(1'000, [&] { read_done = true; }));
  queue->submit(make_writeback(9'000'000, [&] { wb_done = true; }));
  step_until(read_done);
  ASSERT_EQ(queue->queued(), 1u) << "the write-back is held";
  ASSERT_EQ(sim.pending_events(), 1u) << "only the hold's expiry is scheduled";
  queue.reset();
  sim.run();
  EXPECT_FALSE(wb_done);
  EXPECT_EQ(dev.stats().writes, 0u);
}

// ---------------------------------------------------------------------------
// Read order: the write-back policy's read class by predicted positioning
// ---------------------------------------------------------------------------

/// A Trail data disk's queue: reads at class 0 (no write-backs queued).
class ReadOrderTest : public ::testing::Test {
 protected:
  /// A one-sector read of `lba` that logs its completion.
  PendingIo make_read(disk::Lba lba, std::function<void()> then = {}) {
    PendingIo io;
    io.lba = lba;
    io.count = 1;
    io.out = buf_;
    io.on_complete = [this, lba, then = std::move(then)] {
      done.push_back({sim.now(), lba});
      if (then) then();
    };
    return io;
  }
  std::uint64_t counter(std::string_view name) { return obs.metrics.counter(name).value(); }
  /// Overhead + seek + rotational wait the device has charged so far.
  sim::Duration positioning() const {
    const disk::DiskStats& s = dev.stats();
    return s.overhead + s.seek + s.rotation;
  }

  struct Done {
    sim::TimePoint at;
    disk::Lba lba = 0;
  };

  sim::Simulator sim;
  disk::DiskDevice dev{sim, disk::wd_caviar_10g()};
  obs::Obs obs{sim};
  std::vector<Done> done;
  /// Overhead + full-stroke seek + one revolution: 33.1 ms.
  const sim::Duration deadline = dev.profile().command_overhead +
                                 dev.profile().seek.full_stroke +
                                 dev.profile().rotation_time();

 private:
  std::vector<std::byte> buf_ = std::vector<std::byte>(disk::kSectorSize);
};

TEST_F(ReadOrderTest, RotationallyCloserLaterReadGoesFirst) {
  DeviceQueue queue(dev, make_writeback_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  // Sector 10 of track 0 leaves the device; a command issued then lands
  // about 50 sectors on (one 1 ms overhead at 550 sectors a revolution).
  // Sector 11 has passed by then and waits nearly a revolution; sector
  // 110 comes round in about 1 ms.
  queue.submit(make_read(10, [&] {
    EXPECT_LT(queue.position_time(110) + dev.profile().rotation_time() / 2,
              queue.position_time(11));
  }));
  queue.submit(make_read(11));
  queue.submit(make_read(110));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[1].lba, 110u) << "the later, closer read";
  EXPECT_EQ(done[2].lba, 11u);
  EXPECT_EQ(counter("io.read_reorders"), 1u);
  EXPECT_EQ(counter("io.read_deadline_dispatches"), 0u);
}

TEST_F(ReadOrderTest, FarReadGoesAtTheFirstDispatchPastTheDeadline) {
  DeviceQueue queue(dev, make_writeback_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  const disk::Geometry& geom = dev.geometry();
  const std::uint32_t spt = geom.spt_of_track(0);
  // The far read sits a full stroke away, on the last track; every read
  // of the stream lands on track 0 about 100 sectors past the last one,
  // so each stream read is predicted closer than the far read.
  const disk::Lba far = geom.first_lba_of_track(geom.track_count() - 1);
  int streamed = 0;
  std::function<void()> next = [&] {
    if (++streamed > 60) return;
    const disk::Lba last = done.back().lba;
    queue.submit(make_read((last % spt + 100) % spt, next));
  };
  queue.submit(make_read(10, next));
  const sim::TimePoint far_queued = sim.now();
  queue.submit(make_read(far));
  sim.run();
  const auto it = std::find_if(done.begin(), done.end(), [&](const Done& d) { return d.lba == far; });
  ASSERT_NE(it, done.end());
  const auto i = static_cast<std::size_t>(it - done.begin());
  ASSERT_GE(i, 2u);
  // The device never idles, so each dispatch is the previous completion.
  EXPECT_GT(done[i - 1].at - far_queued, deadline) << "dispatched past the deadline";
  EXPECT_LE(done[i - 2].at - far_queued, deadline) << "at the first dispatch past it";
  EXPECT_LT(i, done.size() - 10) << "ahead of the rest of the stream";
  EXPECT_EQ(counter("io.read_deadline_dispatches"), 1u);
  EXPECT_EQ(counter("io.read_reorders"), i - 1) << "every stream read before it";
}

TEST_F(ReadOrderTest, PredictedPositioningMatchesTheDevice) {
  DeviceQueue queue(dev, make_writeback_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  sim::Rng rng(11);
  // Hot data: the first 100 tracks, so seeks stay short and the deadline
  // seldom overrides the prediction.
  const auto sectors = static_cast<std::int64_t>(dev.geometry().first_lba_of_track(100));
  // Four one-sector reads outstanding at random LBAs. At each completion
  // the queue dispatches its pick at once, so the stats' growth up to the
  // next completion is that pick's overhead + seek + rotation, which the
  // queue predicted at this completion.
  std::vector<disk::Lba> queued;
  std::map<disk::Lba, sim::Duration> predicted;
  sim::Duration charged_before{};
  std::int64_t worst_ns = 0;
  int checked = 0;
  int not_least = 0;
  auto draw = [&] { return static_cast<disk::Lba>(rng.uniform(0, sectors - 1)); };
  std::function<void()> on_done = [&] {
    const disk::Lba lba = done.back().lba;
    std::erase(queued, lba);
    if (const auto it = predicted.find(lba); it != predicted.end()) {
      const std::int64_t err_ns = (positioning() - charged_before - it->second).ns();
      worst_ns = std::max(worst_ns, err_ns < 0 ? -err_ns : err_ns);
      ++checked;
      bool least = true;
      for (const auto& [other, t] : predicted) least = least && t >= it->second;
      not_least += least ? 0 : 1;
    }
    charged_before = positioning();
    const bool more = done.size() <= 400;
    if (more) queued.push_back(draw());
    // Every queued read, the one about to be submitted too, is a candidate.
    predicted.clear();
    for (const disk::Lba q : queued) predicted[q] = queue.position_time(q);
    if (more) queue.submit(make_read(queued.back(), on_done));
  };
  for (int i = 0; i < 4; ++i) {
    queued.push_back(draw());
    queue.submit(make_read(queued.back(), on_done));
  }
  sim.run();
  EXPECT_EQ(checked, 403) << "every read but the first";
  // The device rounds each sector time and each wait down to whole ns.
  EXPECT_LE(worst_ns, 5);
  // The queue dispatched its least-predicted read, but for its deadline.
  EXPECT_GT(counter("io.read_reorders"), 100u);
  EXPECT_LE(not_least, static_cast<int>(counter("io.read_deadline_dispatches")));
  RecordProperty("worst_error_ns", static_cast<int>(worst_ns));
}

TEST_F(ReadOrderTest, SingleClassClookQueueKeepsItsOrder) {
  DeviceQueue queue(dev, make_clook_scheduler());
  queue.attach_obs(&obs, 16, "io.queue_depth.data0");
  // The same three reads as above: C-LOOK sweeps up from the head's
  // track, so sector 11 goes before the rotationally closer sector 110.
  queue.submit(make_read(10));
  queue.submit(make_read(110));
  queue.submit(make_read(11));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[1].lba, 11u);
  EXPECT_EQ(done[2].lba, 110u);
  EXPECT_EQ(counter("io.read_reorders"), 0u);
}

class StandardDriverTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskDevice d0{sim, disk::small_test_disk()};
  disk::DiskDevice d1{sim, disk::small_test_disk()};
  StandardDriver driver;
};

TEST_F(StandardDriverTest, WriteReadRoundTripAcrossDevices) {
  const DeviceId id0 = driver.add_device(d0);
  const DeviceId id1 = driver.add_device(d1);
  std::vector<std::byte> a(disk::kSectorSize, std::byte{1});
  std::vector<std::byte> b(disk::kSectorSize, std::byte{2});
  int done = 0;
  driver.submit_write({id0, 5}, 1, a, [&] { ++done; });
  driver.submit_write({id1, 5}, 1, b, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  std::vector<std::byte> out(disk::kSectorSize);
  bool read_done = false;
  driver.submit_read({id1, 5}, 1, out, [&] { read_done = true; });
  sim.run();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(out, b);
}

TEST_F(StandardDriverTest, UnknownDeviceThrows) {
  (void)driver.add_device(d0);
  std::vector<std::byte> buf(disk::kSectorSize);
  EXPECT_THROW(driver.submit_write({DeviceId{3, 9}, 0}, 1, buf, {}), std::out_of_range);
  EXPECT_THROW(driver.submit_read({DeviceId{7, 0}, 0}, 1, buf, {}), std::out_of_range);
}

TEST_F(StandardDriverTest, ShortOrEmptyRequestRejectedAtSubmit) {
  const DeviceId id = driver.add_device(d0);
  std::vector<std::byte> one_sector(disk::kSectorSize, std::byte{0x11});
  bool fired = false;
  // A one-sector span submitted as two sectors: the write must not copy
  // past the span's end, and the read must not reach the device.
  EXPECT_THROW(driver.submit_write({id, 0}, 2, one_sector, [&] { fired = true; }),
               std::invalid_argument);
  EXPECT_THROW(driver.submit_read({id, 0}, 2, one_sector, [&] { fired = true; }),
               std::invalid_argument);
  EXPECT_THROW(driver.submit_write({id, 0}, 0, one_sector, {}), std::invalid_argument);
  EXPECT_THROW(driver.submit_read({id, 0}, 0, one_sector, {}), std::invalid_argument);
  EXPECT_TRUE(driver.queue(id).idle());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(d0.stats().writes, 0u);
  EXPECT_EQ(d0.stats().reads, 0u);
}

TEST_F(StandardDriverTest, DrainWaitsForAllQueues) {
  const DeviceId id0 = driver.add_device(d0);
  const DeviceId id1 = driver.add_device(d1);
  std::vector<std::byte> data(disk::kSectorSize, std::byte{3});
  for (int i = 0; i < 3; ++i) {
    driver.submit_write({id0, static_cast<disk::Lba>(i * 8)}, 1, data, {});
    driver.submit_write({id1, static_cast<disk::Lba>(i * 8)}, 1, data, {});
  }
  bool drained = false;
  driver.drain([&] { drained = true; });
  EXPECT_FALSE(drained);
  sim.run();
  EXPECT_TRUE(drained);
  // Drain on an idle driver completes immediately.
  bool again = false;
  driver.drain([&] { again = true; });
  EXPECT_TRUE(again);
}

TEST_F(StandardDriverTest, ElevatorReducesSeekVersusFifo) {
  // Property: with a backlog of random writes, C-LOOK's total service time
  // is below FIFO's on the same workload.
  auto run_with = [](StandardDriver::Scheduling sched) {
    sim::Simulator sim;
    disk::DiskDevice dev(sim, disk::wd_caviar_10g());
    StandardDriver driver(sched);
    const DeviceId id = driver.add_device(dev);
    sim::Rng rng(77);
    std::vector<std::byte> data(disk::kSectorSize, std::byte{9});
    int done = 0;
    const int n = 60;
    for (int i = 0; i < n; ++i) {
      driver.submit_write(
          {id, static_cast<disk::Lba>(
                   rng.uniform(0, static_cast<std::int64_t>(dev.geometry().total_sectors()) - 2))},
          1, data, [&done] { ++done; });
    }
    sim.run();
    EXPECT_EQ(done, n);
    return dev.stats().seek;
  };
  const auto fifo_seek = run_with(StandardDriver::Scheduling::kFifo);
  const auto clook_seek = run_with(StandardDriver::Scheduling::kClook);
  EXPECT_LT(clook_seek.ns(), fifo_seek.ns() / 2)
      << "elevator should at least halve total seek time on a 60-deep backlog";
}

}  // namespace
}  // namespace trail::io
