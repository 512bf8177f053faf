// Wall-clock microbenchmarks (google-benchmark) for the simulation & I/O
// engine hot paths: event scheduling/cancellation in sim::Simulator, raw
// sector throughput in disk::SectorStore, and range bookkeeping in
// core::BufferManager. These paths dominate harness overhead in every
// paper-reproduction bench, so their trajectory is recorded in
// BENCH_engine.json (see scripts/run_benches.sh) from PR 2 onward.

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/buffer_manager.hpp"
#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "disk/sector_store.hpp"
#include "io/block.hpp"
#include "io/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace trail;

// --------------------------------------------------------------------------
// Event engine
// --------------------------------------------------------------------------

// Schedule-then-drain: the basic dispatch loop with no cancellations.
void BM_EventScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    state.ResumeTiming();
    std::uint64_t fired = 0;
    for (int i = 0; i < events; ++i)
      simulator.schedule(sim::micros(i % 97), [&fired] { ++fired; });
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventScheduleRun)->Arg(10'000)->Unit(benchmark::kMillisecond);

// The driver's timeout pattern: every op schedules a guard event that is
// cancelled when the op completes, so half of all scheduled events are
// cancelled before they fire. This is the path the lazily-scanned
// cancellation list made quadratic.
void BM_EventCancelHeavy(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    std::vector<sim::EventId> guards;
    guards.reserve(static_cast<std::size_t>(events));
    state.ResumeTiming();
    std::uint64_t fired = 0;
    for (int i = 0; i < events; ++i) {
      simulator.schedule(sim::micros(i), [&fired] { ++fired; });
      guards.push_back(
          simulator.schedule(sim::micros(i) + sim::millis(100), [&fired] { fired += 1000; }));
    }
    for (const sim::EventId id : guards) simulator.cancel(id);
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events * 2);
}
BENCHMARK(BM_EventCancelHeavy)->Arg(2'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

// Interleaved schedule/cancel/dispatch churn: a rolling window of pending
// events, as produced by a device queue with per-command completions.
void BM_EventChurn(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    state.ResumeTiming();
    std::uint64_t fired = 0;
    sim::EventId last_guard;
    for (int i = 0; i < ops; ++i) {
      simulator.schedule(sim::micros(5), [&fired] { ++fired; });
      if (last_guard.valid()) simulator.cancel(last_guard);
      last_guard = simulator.schedule(sim::millis(50), [&fired] { fired += 1000; });
      simulator.step();
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_EventChurn)->Arg(10'000)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Sector store
// --------------------------------------------------------------------------

// Small enough that the working set is not purely DRAM-bandwidth-bound
// (which would mask bookkeeping overhead), large enough to exceed L2.
constexpr disk::Lba kStoreSectors = 1 << 15;  // 16 MB disk

void BM_SectorStoreSeqWrite(benchmark::State& state) {
  const auto run = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::byte> data(static_cast<std::size_t>(run) * disk::kSectorSize,
                              std::byte{0x5A});
  disk::SectorStore store(kStoreSectors);
  disk::Lba lba = 0;
  for (auto _ : state) {
    store.write(lba, run, data);
    lba += run;
    if (lba + run > kStoreSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * run *
                          static_cast<std::int64_t>(disk::kSectorSize));
}
BENCHMARK(BM_SectorStoreSeqWrite)->Arg(1)->Arg(8)->Arg(128);

void BM_SectorStoreSeqRead(benchmark::State& state) {
  const auto run = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::byte> buf(static_cast<std::size_t>(run) * disk::kSectorSize);
  disk::SectorStore store(kStoreSectors);
  // Half the disk written so reads mix hit and zero-fill paths.
  std::vector<std::byte> data(64 * disk::kSectorSize, std::byte{0x77});
  for (disk::Lba l = 0; l + 64 <= kStoreSectors / 2; l += 64) store.write(l, 64, data);
  disk::Lba lba = 0;
  for (auto _ : state) {
    store.read(lba, run, buf);
    benchmark::DoNotOptimize(buf.data());
    lba += run;
    if (lba + run > kStoreSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * run *
                          static_cast<std::int64_t>(disk::kSectorSize));
}
BENCHMARK(BM_SectorStoreSeqRead)->Arg(8)->Arg(128);

void BM_SectorStoreRandomWrite(benchmark::State& state) {
  const auto run = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::byte> data(static_cast<std::size_t>(run) * disk::kSectorSize,
                              std::byte{0xA5});
  disk::SectorStore store(kStoreSectors);
  sim::Rng rng(42);
  for (auto _ : state) {
    const auto lba = static_cast<disk::Lba>(
        rng.uniform(0, static_cast<std::int64_t>(kStoreSectors - run - 1)));
    store.write(lba, run, data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * run *
                          static_cast<std::int64_t>(disk::kSectorSize));
}
BENCHMARK(BM_SectorStoreRandomWrite)->Arg(8);

// The recovery scanner's probe loop: single-sector is_written tests.
void BM_SectorStoreIsWritten(benchmark::State& state) {
  disk::SectorStore store(kStoreSectors);
  std::vector<std::byte> data(disk::kSectorSize, std::byte{0x11});
  for (disk::Lba l = 0; l < kStoreSectors; l += 2) store.write(l, 1, data);
  disk::Lba lba = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits += store.is_written(lba) ? 1 : 0;
    lba = (lba + 1) % kStoreSectors;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SectorStoreIsWritten);

// --------------------------------------------------------------------------
// Buffer manager
// --------------------------------------------------------------------------

// One logged-write lifecycle: register -> cover-pin -> snapshot at
// write-back dispatch -> mark durable -> unpin (sectors released).
void BM_BufferManagerCycle(benchmark::State& state) {
  const auto run = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t released = 0;
  core::BufferManager buffers([&released](core::RecordId) { ++released; });
  const io::DeviceId dev{0, 0};
  std::vector<std::byte> data(static_cast<std::size_t>(run) * disk::kSectorSize,
                              std::byte{0x3C});
  core::RecordId record = 1;
  disk::Lba lba = 0;
  for (auto _ : state) {
    buffers.register_write(record, dev, lba, data);
    buffers.pin_range(dev, lba, run);
    core::BufferManager::Image img = buffers.snapshot(dev, lba, run);
    buffers.mark_durable(dev, lba, img.versions);
    buffers.unpin_range(dev, lba, run);
    benchmark::DoNotOptimize(img.data.data());
    ++record;
    lba = (lba + run) % (1 << 16);
  }
  if (released != static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("record lifecycle broken");
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_BufferManagerCycle)->Arg(2)->Arg(8)->Arg(32);

// Read-path overlay probing against a populated manager.
void BM_BufferManagerOverlay(benchmark::State& state) {
  std::uint64_t released = 0;
  core::BufferManager buffers([&released](core::RecordId) { ++released; });
  const io::DeviceId dev{0, 0};
  constexpr std::uint32_t kRun = 8;
  std::vector<std::byte> data(kRun * disk::kSectorSize, std::byte{0x3C});
  for (std::uint32_t i = 0; i < 1024; ++i)
    buffers.register_write(i + 1, dev, static_cast<disk::Lba>(i) * kRun * 2, data);
  std::vector<std::byte> buf(kRun * disk::kSectorSize);
  disk::Lba lba = 0;
  for (auto _ : state) {
    const bool hit = buffers.covers(dev, lba, kRun);
    if (hit) buffers.overlay(dev, lba, kRun, buf);
    benchmark::DoNotOptimize(hit);
    lba = (lba + kRun) % (1024 * kRun * 2);
  }
  state.SetItemsProcessed(state.iterations() * kRun);
}
BENCHMARK(BM_BufferManagerOverlay);

// --------------------------------------------------------------------------
// Observability layer
// --------------------------------------------------------------------------

// The metrics hot path: one histogram record per driver event. Also
// exercises the reporting path once, exporting the recorded
// distribution's percentiles as p50_ns/p99_ns counters — these land in
// BENCH_engine.json, where run_benches.sh renders the per-bench
// histogram blocks.
void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  sim::Rng rng(7);
  for (auto _ : state) {
    // Log-uniform-ish synthetic latencies, 1 us .. ~1 s in ns.
    const std::int64_t v = rng.uniform(1'000, 1'000'000'000);
    h.record(v);
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
  state.counters["p50_ns"] = h.percentile(50);
  state.counters["p99_ns"] = h.percentile(99);
}
BENCHMARK(BM_ObsHistogramRecord);

// Span emission with the tracer off (arg 0: the always-compiled-in cost
// every instrumented hot path pays) and on (arg 1: ring push).
void BM_ObsScopedSpan(benchmark::State& state) {
  sim::Simulator simulator;
  obs::EventTracer tracer(simulator, 1 << 12);
  tracer.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  benchmark::DoNotOptimize(tracer.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan)->Arg(0)->Arg(1);

// End-to-end wall-clock cost of one chained sync-write workload through
// the instrumented TrailDriver across three instrumentation tiers:
//   arg 0 — request attribution off, tracer off (bare metrics baseline)
//   arg 1 — attribution on, tracer on (everything)
//   arg 2 — attribution on, tracer off (the always-on production shape)
// The 2-vs-0 delta is the full price of request attribution
// (obs::ReqTracker + flight recorder) on the realest path we have; CI
// floors it at < 5%. The simulated sync-write latency distribution lands
// as p50_ns/p99_ns counters.
void BM_TrailSyncWriteCycle(benchmark::State& state) {
  const bool traced = state.range(0) == 1;
  const bool attributed = state.range(0) != 0;
  constexpr int kWrites = 400;
  double p50 = 0.0, p99 = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    disk::DiskDevice log_disk(simulator, disk::small_test_disk());
    disk::DiskDevice data_disk(simulator, disk::small_test_disk());
    core::format_log_disk(log_disk);
    core::TrailDriver driver(simulator, log_disk);
    obs::Obs obs(simulator, 1 << 14);
    obs.tracer.set_enabled(traced);
    core::ObsScope scope;
    scope.request_attribution = attributed;
    driver.attach_obs(&obs, scope);
    const io::DeviceId dev = driver.add_data_disk(data_disk);
    driver.mount();
    sim::Rng rng(11);
    const auto sectors = data_disk.geometry().total_sectors();
    std::vector<std::byte> payload(disk::kSectorSize, std::byte{0x5A});
    int issued = 0;
    std::function<void()> next;
    next = [&] {
      if (issued >= kWrites) return;
      ++issued;
      const auto lba =
          static_cast<disk::Lba>(rng.uniform(0, static_cast<std::int64_t>(sectors - 2)));
      driver.submit_write(io::BlockAddr{dev, lba}, 1, payload, [&] { next(); });
    };
    state.ResumeTiming();
    simulator.schedule(sim::micros(1), [&] { next(); });
    while (issued < kWrites || driver.stats().requests_logged < kWrites) {
      if (!simulator.step()) break;
    }
    state.PauseTiming();
    const obs::Histogram& h = obs.metrics.histogram("trail.sync_write_ns");
    p50 = h.percentile(50);
    p99 = h.percentile(99);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kWrites);
  state.counters["p50_ns"] = p50;
  state.counters["p99_ns"] = p99;
}
BENCHMARK(BM_TrailSyncWriteCycle)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// The batched write-back path end-to-end: a burst of adjacent
// single-sector writes whose write-backs pile up behind the data disk and
// coalesce in-queue into few CSCAN-ordered device commands, run through
// full drain. Arg = TrailConfig::max_writeback_ranges (1 = coalescing
// off, i.e. one device command per record run; 32 = the default batched
// path). The counters expose the dispatch granularity directly:
// wb_commands per burst and the mean coalesced ranges per command.
void BM_WritebackCoalesce(benchmark::State& state) {
  const auto cap = static_cast<std::uint32_t>(state.range(0));
  constexpr int kWrites = 256;
  double commands = 0.0, coalesce = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    disk::DiskDevice log_disk(simulator, disk::small_test_disk());
    disk::DiskDevice data_disk(simulator, disk::small_test_disk());
    core::format_log_disk(log_disk);
    core::TrailConfig config;
    config.max_writeback_ranges = cap;
    core::TrailDriver driver(simulator, log_disk, config);
    const io::DeviceId dev = driver.add_data_disk(data_disk);
    driver.mount();
    std::vector<std::byte> payload(disk::kSectorSize, std::byte{0x5A});
    int issued = 0;
    std::function<void()> next;
    next = [&] {
      if (issued >= kWrites) return;
      // Adjacent sectors: every queued write-back is mergeable with its
      // neighbours.
      const auto lba = static_cast<disk::Lba>(issued);
      ++issued;
      driver.submit_write(io::BlockAddr{dev, lba}, 1, payload, [&] { next(); });
    };
    bool drained = false;
    state.ResumeTiming();
    simulator.schedule(sim::micros(1), [&] { next(); });
    while (issued < kWrites || driver.stats().requests_logged < kWrites) {
      if (!simulator.step()) break;
    }
    driver.drain([&] { drained = true; });
    while (!drained) {
      if (!simulator.step()) break;
    }
    state.PauseTiming();
    const auto& s = driver.stats();
    commands = static_cast<double>(s.writeback_commands);
    coalesce = s.writeback_commands == 0
                   ? 0.0
                   : static_cast<double>(s.writebacks_dispatched) /
                         static_cast<double>(s.writeback_commands);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kWrites);
  state.counters["wb_commands"] = commands;
  state.counters["wb_coalesce"] = coalesce;
}
BENCHMARK(BM_WritebackCoalesce)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

// The write-back queue's host cost per request under a standing backlog
// of random-LBA write-backs: each iteration submits one single-range
// batch (try_merge, else push, as DeviceQueue::submit does) and
// dispatches from the CSCAN sweep until `backlog` requests remain.
// Arg = backlog. CI asserts /4096 costs under 3x /256: the cost must not
// grow with the backlog (the list-scan queue this replaced measured
// ~27-30x on a 4-core 2.1 GHz x86 Release build).
void BM_WritebackQueueBacklog(benchmark::State& state) {
  const auto backlog = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kSectors = std::int64_t{1} << 22;  // a 2 GB data disk
  const std::unique_ptr<io::IoScheduler> sched = io::make_writeback_scheduler();
  sim::Rng rng(5);
  std::uint64_t seq = 0;
  auto submit = [&] {
    io::PendingIo io;
    io.is_write = true;
    io.lba = static_cast<disk::Lba>(rng.uniform(0, kSectors - 2));
    io.count = 2;
    io.priority = 1;
    io.merge_cap = 32;
    io.seq = seq++;
    io::PendingIo::WbRange range;
    range.lba = io.lba;
    range.count = io.count;
    io.ranges.push_back(std::move(range));
    if (!sched->try_merge(io)) sched->push(std::move(io));
  };
  while (sched->size() < backlog) submit();
  io::HeadState head;
  for (auto _ : state) {
    submit();
    while (sched->size() > backlog) {
      const io::PendingIo io = sched->pop_next(head).io;
      head.lba = io.lba + io.count;
    }
    benchmark::DoNotOptimize(head.lba);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WritebackQueueBacklog)->Arg(256)->Arg(4096);

// Chrome-trace serialization of a full ring (the export path the trace
// viewer and CI smoke test exercise).
void BM_ObsChromeExport(benchmark::State& state) {
  sim::Simulator simulator;
  obs::EventTracer tracer(simulator, 1 << 12);
  tracer.set_enabled(true);
  tracer.set_track_name(0, "lane0");
  for (int i = 0; i < (1 << 12); ++i)
    tracer.complete("event", "bench", sim::TimePoint{} + sim::micros(i), sim::micros(3));
  for (auto _ : state) {
    const std::string json = tracer.export_chrome_json();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 12));
}
BENCHMARK(BM_ObsChromeExport)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
