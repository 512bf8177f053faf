// The MPSC submission front-end (core/submission_queue.hpp):
// backpressure, shutdown, the single-producer determinism
// parity argument, and the multi-producer stress shape the TSan CI job
// runs under -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/submission_queue.hpp"
#include "disk/disk_device.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace trail {
namespace {

using core::Admission;
using core::MpscFrontEnd;
using core::SubmissionQueue;
using core::SyncTicket;

SubmissionQueue::Request req(SyncTicket* ticket = nullptr) {
  SubmissionQueue::Request r;
  r.addr = io::BlockAddr{io::DeviceId{0, 0}, 0};
  r.count = 1;
  r.ticket = ticket;
  return r;
}

// ---------------------------------------------------------------------------
// Shutdown (single-threaded shapes)
// ---------------------------------------------------------------------------

TEST(SubmissionQueue, SubmitAfterCloseReturnsClosed) {
  SubmissionQueue q(4);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.submit(req()), Admission::kClosed);
}

TEST(SubmissionQueue, DrainWaitReturnsZeroOnlyWhenClosedAndEmpty) {
  SubmissionQueue q(4);
  ASSERT_EQ(q.submit(req()), Admission::kOk);
  q.close();

  // Already-admitted requests still drain after close ...
  std::vector<SubmissionQueue::Request> batch;
  EXPECT_EQ(q.drain_wait(batch), 1u);
  // ... and only then does the consumer see the termination signal.
  EXPECT_EQ(q.drain_wait(batch), 0u);
}

// ---------------------------------------------------------------------------
// Backpressure and shutdown (real threads)
// ---------------------------------------------------------------------------

TEST(SubmissionQueue, BlockingBackpressureUnblocksOnDrain) {
  obs::MetricsRegistry metrics;
  SubmissionQueue q(1, &metrics);
  ASSERT_EQ(q.submit(req()), Admission::kOk);  // ring now full

  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(q.submit(req()), Admission::kOk);  // blocks until the drain below
    admitted.store(true);
  });

  // Wait until the producer has actually parked in backpressure.
  while (q.blocked() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());

  std::vector<SubmissionQueue::Request> batch;
  EXPECT_EQ(q.drain(batch), 1u);
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(metrics.counter("mpsc.blocked").value(), 1u);
  EXPECT_EQ(metrics.histogram("mpsc.blocked_ns").count(), 1u);
}

TEST(SubmissionQueue, ShutdownWakesBlockedProducers) {
  SubmissionQueue q(1);
  ASSERT_EQ(q.submit(req()), Admission::kOk);

  constexpr int kProducers = 4;
  std::atomic<int> closed_seen{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&] {
      if (q.submit(req()) == Admission::kClosed) closed_seen.fetch_add(1);
    });
  }
  // Producers may still be on their way to the wait; close() must wake
  // both the already-parked and turn away the not-yet-arrived.
  q.close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(closed_seen.load(), kProducers);

  // The request admitted before close still drains.
  std::vector<SubmissionQueue::Request> batch;
  EXPECT_EQ(q.drain_wait(batch), 1u);
  EXPECT_EQ(q.drain_wait(batch), 0u);
}

// ---------------------------------------------------------------------------
// Single-producer parity: the MPSC front-end reproduces the scripted
// clustered workload byte-for-byte (the determinism acceptance bar)
// ---------------------------------------------------------------------------

struct ParityParams {
  std::uint32_t writes = 40;
  std::uint32_t warmup = 5;
  std::uint32_t sectors = 2;
  std::uint64_t seed = 42;
};

/// The scripted side: bench::SyncWriteWorkload, 1 clustered process.
obs::Histogram run_scripted(bench::TrailStack& stack, const ParityParams& p) {
  bench::SyncWriteWorkload::Params wp;
  wp.processes = 1;
  wp.write_sectors = p.sectors;
  wp.clustered = true;
  wp.writes_per_process = p.writes;
  wp.warmup_per_process = p.warmup;
  wp.seed = p.seed;
  return bench::SyncWriteWorkload::run(stack.sim, *stack.driver, stack.devices,
                                       stack.data_disks[0]->geometry().total_sectors(), wp);
}

/// The MPSC side: one REAL producer thread re-rolling the workload's
/// exact RNG sequence, synchronously (submit → wait ticket → repeat).
obs::Histogram run_mpsc(bench::TrailStack& stack, const ParityParams& p) {
  SubmissionQueue queue(8);  // no mpsc.* series:
  MpscFrontEnd front_end(stack.sim, *stack.driver, queue);  // registries must stay comparable
  const disk::Lba device_sectors = stack.data_disks[0]->geometry().total_sectors();

  obs::Histogram latencies;
  std::thread producer([&] {
    sim::Rng seeder(p.seed);
    sim::Rng rng = seeder.split();  // SyncWriteWorkload's per-process stream
    std::vector<std::byte> data(static_cast<std::size_t>(p.sectors) * disk::kSectorSize,
                                std::byte{0x5A});
    SyncTicket ticket;
    for (std::uint32_t i = 0; i < p.warmup + p.writes; ++i) {
      const auto dev = stack.devices[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(stack.devices.size()) - 1))];
      const auto lba = static_cast<disk::Lba>(
          rng.uniform(0, static_cast<std::int64_t>(device_sectors - p.sectors - 1)));
      ticket.reset();
      ASSERT_EQ(queue.submit({io::BlockAddr{dev, lba}, p.sectors, data, &ticket}),
                Admission::kOk);
      ticket.wait();
      if (i >= p.warmup) latencies.record(ticket.latency_ns());
    }
    queue.close();
  });
  front_end.run();
  producer.join();
  EXPECT_EQ(front_end.submitted(), p.warmup + p.writes);
  EXPECT_EQ(front_end.acked(), p.warmup + p.writes);
  return latencies;
}

TEST(MpscParity, SingleProducerMatchesScriptedWorkloadByteForByte) {
  const ParityParams p;

  bench::TrailStack scripted(3);
  scripted.obs.tracer.set_enabled(true);
  const obs::Histogram h_scripted = run_scripted(scripted, p);

  bench::TrailStack mpsc(3);
  mpsc.obs.tracer.set_enabled(true);
  const obs::Histogram h_mpsc = run_mpsc(mpsc, p);

  // Same per-write simulated latencies ...
  EXPECT_EQ(h_mpsc.count(), h_scripted.count());
  EXPECT_EQ(h_mpsc.sum(), h_scripted.sum());
  EXPECT_EQ(h_mpsc.min(), h_scripted.min());
  EXPECT_EQ(h_mpsc.max(), h_scripted.max());
  // ... the same driver behaviour (every counter, gauge, histogram) ...
  EXPECT_EQ(mpsc.obs.metrics.to_json(), scripted.obs.metrics.to_json());
  EXPECT_EQ(mpsc.obs.metrics.to_openmetrics(), scripted.obs.metrics.to_openmetrics());
  // ... and the same event-by-event virtual-time history.
  EXPECT_EQ(mpsc.obs.tracer.export_chrome_json(), scripted.obs.tracer.export_chrome_json());
  // The flight recorder saw identical request lives too.
  EXPECT_EQ(mpsc.obs.flight.dump(), scripted.obs.flight.dump());
}

// ---------------------------------------------------------------------------
// Multi-producer stress: the TSan CI target (>= 4 real producers)
// ---------------------------------------------------------------------------

TEST(MpscStress, FourProducersThroughBoundedRing) {
  constexpr int kProducers = 4;
  constexpr std::uint32_t kWritesEach = 60;
  // Below the producer count, so producers also race through
  // backpressure and the mpsc.blocked* cells.
  constexpr std::size_t kCapacity = 2;

  bench::TrailStack stack(3);
  SubmissionQueue queue(kCapacity, &stack.obs.metrics);
  MpscFrontEnd front_end(stack.sim, *stack.driver, queue, &stack.obs.metrics);
  const disk::Lba device_sectors = stack.data_disks[0]->geometry().total_sectors();

  // Per-producer samples, recorded after the join: obs cells are
  // single-writer.
  std::vector<std::vector<std::int64_t>> samples(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int pid = 0; pid < kProducers; ++pid) {
    producers.emplace_back([&, pid] {
      sim::Rng rng(1000 + static_cast<std::uint64_t>(pid));
      std::vector<std::byte> data(2 * disk::kSectorSize,
                                  std::byte{static_cast<unsigned char>(0x40 + pid)});
      SyncTicket ticket;
      for (std::uint32_t i = 0; i < kWritesEach; ++i) {
        const auto dev = stack.devices[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(stack.devices.size()) - 1))];
        const auto lba = static_cast<disk::Lba>(
            rng.uniform(0, static_cast<std::int64_t>(device_sectors) - 3));
        ticket.reset();
        ASSERT_EQ(queue.submit({io::BlockAddr{dev, lba}, 2, data, &ticket}), Admission::kOk);
        ticket.wait();
        ASSERT_TRUE(ticket.done());
        ASSERT_GT(ticket.latency_ns(), 0);
        samples[pid].push_back(ticket.latency_ns());
      }
    });
  }
  std::thread closer([&] {
    for (auto& t : producers) t.join();
    queue.close();
  });
  front_end.run();
  closer.join();

  obs::Histogram latencies;
  for (const auto& s : samples) {
    for (const std::int64_t ns : s) latencies.record(ns);
  }

  constexpr std::uint64_t kTotal = std::uint64_t{kProducers} * kWritesEach;
  EXPECT_EQ(front_end.submitted(), kTotal);
  EXPECT_EQ(front_end.acked(), kTotal);
  EXPECT_EQ(latencies.count(), kTotal);
  // The producer-written mpsc.* cells lose no update: the queue's mutex
  // serializes every write into them.
  EXPECT_EQ(stack.obs.metrics.counter("mpsc.enqueued").value(), kTotal);
  EXPECT_EQ(stack.obs.metrics.counter("mpsc.blocked").value(),
            stack.obs.metrics.histogram("mpsc.blocked_ns").count());
  EXPECT_LE(stack.obs.metrics.gauge("mpsc.depth").max(), static_cast<std::int64_t>(kCapacity));
  EXPECT_EQ(stack.obs.metrics.histogram("mpsc.batch_requests").sum(),
            static_cast<std::int64_t>(kTotal));
  // Every write went through the driver and was acknowledged.
  EXPECT_EQ(stack.driver->stats().requests_logged, kTotal);
}

}  // namespace
}  // namespace trail
