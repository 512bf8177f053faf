// Wall-clock microbenchmarks (google-benchmark) for the hot paths.
//
// The headline: §3.1 claims the head-position prediction needs "less than
// one microsecond ... on a Pentium II 300 MHz machine"; BM_HeadPrediction
// verifies our implementation clears that bar on modern hardware by a
// wide margin. The rest track the cost of the codecs and the simulator
// core so regressions are visible.

#include <benchmark/benchmark.h>

#include "core/crc32.hpp"
#include "core/log_format.hpp"
#include "db/wal.hpp"
#include "disk/profile.hpp"
#include "io/head_predictor.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace trail;

void BM_HeadPrediction(benchmark::State& state) {
  const disk::DiskProfile profile = disk::st41601n();
  io::HeadPredictor predictor(profile.geometry, profile.rotation_time());
  predictor.set_delta(profile.command_overhead);
  predictor.set_reference(sim::TimePoint{0}, 100, 3);
  std::int64_t t = 1'000'000;
  for (auto _ : state) {
    t += 137'000;  // advancing timestamps, as in live prediction
    benchmark::DoNotOptimize(predictor.predict_sector(100, sim::TimePoint{t}));
  }
}
BENCHMARK(BM_HeadPrediction);

void BM_LbaToChs(benchmark::State& state) {
  const disk::DiskProfile profile = disk::st41601n();
  sim::Rng rng(1);
  const auto total = static_cast<std::int64_t>(profile.geometry.total_sectors());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profile.geometry.to_chs(static_cast<disk::Lba>(rng.uniform(0, total - 1))));
  }
}
BENCHMARK(BM_LbaToChs);

// One full header sector is serialized per iteration regardless of batch
// size, so cost is reported as sector-bytes/second (batch size only
// changes how much of the sector carries entries). The entries_per_s
// rate shows the marginal per-entry cost — this replaces the old
// items/sec-free report where the /1 case misleadingly benched "slower"
// than /32 because each iteration's fixed 512-byte CRC dominated.
void BM_RecordHeaderEncode(benchmark::State& state) {
  core::RecordHeader hdr;
  hdr.batch_size = static_cast<std::uint32_t>(state.range(0));
  hdr.epoch = 3;
  hdr.sequence_id = 77;
  hdr.prev_sect = 1000;
  hdr.log_head = 900;
  hdr.entries.resize(hdr.batch_size);
  disk::SectorBuf sector{};
  for (auto _ : state) {
    core::serialize_record_header(hdr, sector);
    benchmark::DoNotOptimize(sector);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(disk::kSectorSize));
  state.counters["entries_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * state.range(0), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecordHeaderEncode)->Arg(1)->Arg(8)->Arg(32);

void BM_RecordHeaderParse(benchmark::State& state) {
  core::RecordHeader hdr;
  hdr.batch_size = static_cast<std::uint32_t>(state.range(0));
  hdr.entries.resize(hdr.batch_size);
  disk::SectorBuf sector{};
  core::serialize_record_header(hdr, sector);
  for (auto _ : state) benchmark::DoNotOptimize(core::parse_record_header(sector));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(disk::kSectorSize));
  state.counters["entries_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * state.range(0), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecordHeaderParse)->Arg(1)->Arg(32);

// 64 B ~ the header-CRC window granularity, 512 B one sector, 4 KiB a
// mid-size batch, 16 KiB a multi-sector payload image (the CI floor's
// shape). Uses the dispatched implementation.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  sim::Rng rng(5);
  for (auto& b : data) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  for (auto _ : state) benchmark::DoNotOptimize(core::crc32(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(core::crc32_impl_name());
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(512)->Arg(4096)->Arg(16384);

// Per-tier throughput, independent of dispatch: the regression trail for
// each implementation (hw falls back to sliced on CPUs without CLMUL/CRC
// instructions — the label says which one actually ran).
void BM_Crc32Impl(benchmark::State& state, core::CrcImpl impl, const char* label) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  sim::Rng rng(5);
  for (auto& b : data) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  for (auto _ : state) benchmark::DoNotOptimize(core::detail::crc32_with(impl, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(label);
}
BENCHMARK_CAPTURE(BM_Crc32Impl, table, core::CrcImpl::kTable, "table")->Arg(16384);
BENCHMARK_CAPTURE(BM_Crc32Impl, sliced, core::CrcImpl::kSliced, "sliced")->Arg(16384);
BENCHMARK_CAPTURE(BM_Crc32Impl, hw, core::CrcImpl::kHw, "hw")->Arg(16384);

// The tracer's hot record path with the delta/mask compact encoding: a
// realistic alternating event mix (span + counter on one lane). The
// bytes_per_event counter is the capture-side win over the old
// fixed-slot ring (sizeof(TraceEvent) per event).
void BM_TraceCapture(benchmark::State& state) {
  sim::Simulator simulator;
  obs::EventTracer tracer(simulator, 1 << 16);
  tracer.set_enabled(true);
  std::int64_t depth = 0;
  for (auto _ : state) {
    tracer.complete("log.append", "log", sim::TimePoint{depth * 1000}, sim::micros(2), 3);
    tracer.counter("depth", "io", depth & 15, 3);
    depth += 2;
  }
  benchmark::DoNotOptimize(tracer.size());
  state.SetItemsProcessed(state.iterations() * 2);
  if (tracer.size() > 0)
    state.counters["bytes_per_event"] =
        static_cast<double>(tracer.encoded_bytes()) / static_cast<double>(tracer.size());
}
BENCHMARK(BM_TraceCapture);

void BM_WalRecordEncode(benchmark::State& state) {
  db::WalRecord rec;
  rec.type = db::WalRecordType::kUpdate;
  rec.txn = 9;
  rec.table = 2;
  rec.key = 123456;
  rec.row.resize(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(db::LogManager::encode(rec, 0, out));
  }
}
BENCHMARK(BM_WalRecordEncode)->Arg(64)->Arg(512);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    int fired = 0;
    constexpr int kEvents = 10'000;
    for (int i = 0; i < kEvents; ++i)
      simulator.schedule(sim::micros(i), [&fired] { ++fired; });
    state.ResumeTiming();
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
