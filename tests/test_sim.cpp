#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trail::sim {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ((millis(3) + micros(500)).ns(), 3'500'000);
  EXPECT_EQ((millis(3) - micros(500)).ns(), 2'500'000);
  EXPECT_EQ((millis(2) * 4).ns(), millis(8).ns());
  EXPECT_EQ((millis(8) / 4).ns(), millis(2).ns());
  EXPECT_EQ(millis(7) % millis(2), millis(1));
  EXPECT_EQ(millis(7) / millis(2), 3);
  EXPECT_LT(millis(1), millis(2));
  EXPECT_DOUBLE_EQ(millis(1).ms(), 1.0);
  EXPECT_DOUBLE_EQ(seconds(2).sec(), 2.0);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t{1'000'000};
  EXPECT_EQ((t + millis(1)).ns(), 2'000'000);
  EXPECT_EQ((t - micros(500)).ns(), 500'000);
  EXPECT_EQ(TimePoint{5'000} - TimePoint{2'000}, Duration{3'000});
}

TEST(Time, ToString) {
  EXPECT_EQ(to_string(millis_f(1.5)), "1.500 ms");
  EXPECT_EQ(to_string(micros(12)), "12.000 us");
  EXPECT_EQ(to_string(nanos(999)), "999 ns");
  EXPECT_EQ(to_string(seconds(3)), "3.000 s");
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(millis(3), [&] { order.push_back(3); });
  sim.schedule(millis(1), [&] { order.push_back(1); });
  sim.schedule(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint{millis(3).ns()});
}

TEST(Simulator, TieBreaksByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(millis(1), [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(millis(1), [&] {
    ++fired;
    sim.schedule(millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), millis(2).ns());
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DoubleCancelAndCancelAfterFireKeepPendingConsistent) {
  Simulator sim;
  int fired = 0;
  const EventId keep = sim.schedule(millis(5), [&] { ++fired; });
  const EventId gone = sim.schedule(millis(1), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);

  EXPECT_TRUE(sim.cancel(gone));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(gone));  // double-cancel: reported, not double-counted
  EXPECT_FALSE(sim.cancel(gone));
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(keep));  // cancel after fire
  EXPECT_FALSE(sim.cancel(gone));  // cancel after cancelled event was retired
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelOfStaleIdAfterSlotReuse) {
  Simulator sim;
  int fired = 0;
  const EventId first = sim.schedule(millis(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The new event may reuse the fired event's internal slot; the stale id
  // must not cancel it.
  const EventId second = sim.schedule(millis(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(second.valid());
}

TEST(Simulator, CancelOwnEventFromItsCallbackIsNoop) {
  Simulator sim;
  auto id = std::make_shared<EventId>();
  bool cancel_result = true;
  *id = sim.schedule(millis(1), [&, id] { cancel_result = sim.cancel(*id); });
  sim.run();
  EXPECT_FALSE(cancel_result);  // the event had already fired
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilRetiresCancelledEventsWithoutFiring) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule(millis(1), [&] { ++fired; });
  sim.schedule(millis(2), [&] { ++fired; });
  sim.schedule(millis(9), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(TimePoint{millis(3).ns()});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ManyInterleavedCancelsStayDeterministic) {
  // The tombstoned queue must dispatch survivors in exactly (when, seq)
  // order regardless of cancellation pattern.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(sim.schedule(millis(i % 10), [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 100; i += 3) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  sim.run();
  std::vector<int> expected;
  for (int t = 0; t < 10; ++t)
    for (int i = t; i < 100; i += 10)
      if (i % 3 != 0) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, HeavyCancellationCompactsQueueAndPreservesOrder) {
  // Cancelling most of a large queue triggers the O(n) heap compaction
  // sweep; survivors must still dispatch in exact (when, seq) order and
  // stale ids of swept-out entries must stay dead.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i)
    ids.push_back(sim.schedule(millis(i % 50), [&order, i] { order.push_back(i); }));
  // Cancel ~90%: well past the half-dead compaction threshold.
  for (int i = 0; i < kEvents; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kEvents / 10));
  // Swept-out entries retired their slots: re-cancel fails, and the ids
  // cannot kill events that reuse those slots.
  EXPECT_FALSE(sim.cancel(ids[1]));
  bool late_fired = false;
  sim.schedule(millis(60), [&] { late_fired = true; });
  EXPECT_FALSE(sim.cancel(ids[3]));
  sim.run();
  EXPECT_TRUE(late_fired);
  std::vector<int> expected;
  for (int t = 0; t < 50; ++t)
    for (int i = t; i < kEvents; i += 50)
      if (i % 10 == 0) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(millis(1), [&] { ++fired; });
  sim.schedule(millis(5), [&] { ++fired; });
  sim.run_until(TimePoint{millis(2).ns()});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), millis(2).ns());  // clock advanced to the deadline
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().ns(), 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformFullRangeIsDefined) {
  // Ranges wider than 2^63 overflow a signed hi - lo; the full 64-bit
  // range returns next() unchanged.
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(11), twin(11);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(rng.uniform(kMin, kMax), static_cast<std::int64_t>(twin.next()));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.uniform(-1, kMax), -1);
    EXPECT_LE(rng.uniform(kMin, 1), 1);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(3, 3), 3);
}

TEST(Rng, UniformCoversRangeRoughlyEvenly) {
  Rng rng(123);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform(0, 9))];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 * 0.9);
    EXPECT_LT(c, n / 10 * 1.1);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(99);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng b = a.split();
  // The split stream should not replay the parent stream.
  Rng a2(42);
  (void)a2.next();
  EXPECT_NE(b.next(), a2.next());
}

TEST(Rng, NurandStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = nurand(rng, 255, 1, 3000, 123);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

}  // namespace
}  // namespace trail::sim
