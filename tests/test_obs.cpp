// Unit tests for the observability layer (trail::obs): histogram
// bucketing math, tracer ring-buffer semantics, disabled-path no-ops,
// and the determinism contract — two same-seed instrumented runs must
// export byte-identical Chrome-trace JSON and metrics JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trail::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Histogram, SmallValuesAreExact) {
  // Values below kSubCount get one bucket each: recorded percentiles
  // reproduce them exactly, not just to 1/64.
  for (std::int64_t v = 0; v < Histogram::kSubCount; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::bucket_mid(static_cast<int>(v)), v);
  }
  Histogram h;
  h.record(3);
  h.record(17);
  h.record(17);
  EXPECT_DOUBLE_EQ(h.percentile(50), 17.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 3.0);
}

TEST(Histogram, BucketBoundariesAtOctaveEdges) {
  // The first value of each octave starts a new run of kSubCount
  // buckets; the last value before it lands in the previous run.
  for (std::int64_t edge : {std::int64_t{32}, std::int64_t{64}, std::int64_t{1} << 20,
                            std::int64_t{1} << 40, std::int64_t{1} << 62}) {
    const int below = Histogram::bucket_index(edge - 1);
    const int at = Histogram::bucket_index(edge);
    EXPECT_LT(below, at) << "edge " << edge;
    EXPECT_LE(Histogram::bucket_lower(at), edge) << "edge " << edge;
    // The bucket's representative value stays within its own bucket.
    const std::int64_t mid = Histogram::bucket_mid(at);
    EXPECT_EQ(Histogram::bucket_index(mid), at) << "edge " << edge;
  }
}

TEST(Histogram, PercentileRelativeErrorBounded) {
  // Any recorded value is reported (via its bucket midpoint) within
  // 1/64 relative error.
  Histogram h;
  sim::Rng rng(99);
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform(1, 2'000'000'000);
    vals.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  for (double p : {50.0, 90.0, 99.0}) {
    const double got = h.percentile(p);
    EXPECT_GT(got, 0.0);
    // Representative values never stray outside the recorded range.
    EXPECT_GE(got, static_cast<double>(h.min()) * (1.0 - 1.0 / 64));
    EXPECT_LE(got, static_cast<double>(h.max()) * (1.0 + 1.0 / 64));
  }
  const std::int64_t mid = Histogram::bucket_mid(Histogram::bucket_index(1'000'000));
  EXPECT_NEAR(static_cast<double>(mid), 1'000'000.0, 1'000'000.0 / 64);
}

TEST(Histogram, ExactAggregatesAndEndpoints) {
  Histogram h;
  h.record(sim::millis(5));  // Duration overload records ns
  h.record(1'000'000);
  h.record(9'000'000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 15'000'000);
  EXPECT_EQ(h.min(), 1'000'000);
  EXPECT_EQ(h.max(), 9'000'000);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1'000'000.0);    // exact min
  EXPECT_DOUBLE_EQ(h.percentile(100), 9'000'000.0);  // exact max
  h = Histogram{};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(MetricsRegistry, StableReferencesAndOrderedJson) {
  MetricsRegistry reg;
  Counter& c = reg.counter("zeta");
  Gauge& g = reg.gauge("alpha");
  reg.counter("alpha").inc(2);
  c.inc(5);
  g.set(-3);
  EXPECT_EQ(&reg.counter("zeta"), &c);  // node-based storage: stable refs
  const std::string json = reg.to_json();
  // Name-ordered serialization: "alpha" serializes before "zeta".
  EXPECT_LT(json.find("\"alpha\":2"), json.find("\"zeta\":5"));
  EXPECT_NE(json.find("\"alpha\":{\"value\":-3"), std::string::npos);
}

TEST(MetricsRegistry, JsonSurvivesLongNamesAndWideNumbers) {
  // A histogram entry with a long name and near-INT64_MAX values formats
  // to well over the serializer's stack buffer; the output must still be
  // complete, balanced JSON rather than an entry cut off mid-number.
  MetricsRegistry reg;
  const std::string name(96, 'n');
  Histogram& h = reg.histogram(name);
  h.record(std::int64_t{3'000'000'000'000'000'000});
  h.record(std::int64_t{2'999'999'999'999'999'999});
  const std::string json = reg.to_json();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sum\":5999999999999999999"), std::string::npos);
  EXPECT_NE(json.find(name), std::string::npos);
}

// ----------------------------------------------------------------- tracer

TEST(EventTracer, RingWraparoundKeepsNewestAndCountsDropped) {
  sim::Simulator sim;
  EventTracer tracer(sim, 8);
  tracer.set_enabled(true);
  for (int i = 0; i < 20; ++i) tracer.instant_value("tick", "test", i);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // Oldest-first access yields the 8 newest events: values 12..19.
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).value, static_cast<std::int64_t>(12 + i));
  }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, DeltaEncodingStaysCompactOnHotPath) {
  // A hot-path-shaped stream (repeating names/cats, monotone timestamps,
  // slowly-moving values) must encode far below the fixed-slot cost of
  // sizeof(TraceEvent) per event — the point of the delta/mask codec.
  sim::Simulator sim;
  EventTracer tracer(sim, 1 << 14);
  tracer.set_enabled(true);
  constexpr int kEvents = 10'000;
  for (int i = 0; i < kEvents; ++i) {
    tracer.complete("log.append", "log", sim::TimePoint{i * 1000}, sim::micros(2), 3);
    tracer.counter("queue.depth", "io", i % 16, 3);
  }
  EXPECT_EQ(tracer.size(), 1u << 14);
  const double per_event =
      static_cast<double>(tracer.encoded_bytes()) / static_cast<double>(tracer.size());
  EXPECT_LT(per_event, static_cast<double>(sizeof(TraceEvent)) / 3.0)
      << "delta codec regressed to near-fixed-slot size";
}

TEST(EventTracer, LongEvictionStreamStaysBoundedAndCorrect) {
  // Push far past capacity so head-drop and buffer compaction both run
  // many times; retained events must still decode exactly, and the byte
  // buffer must track retained events instead of the full history.
  sim::Simulator sim;
  constexpr std::size_t kCap = 512;
  EventTracer tracer(sim, kCap);
  tracer.set_enabled(true);
  constexpr int kTotal = 300'000;
  for (int i = 0; i < kTotal; ++i) {
    if (i % 3 == 0)
      tracer.counter("depth", "io", i % 7, static_cast<std::uint32_t>(i % 4));
    else
      tracer.instant_value("tick", "test", i, static_cast<std::uint32_t>(i % 4));
  }
  EXPECT_EQ(tracer.size(), kCap);
  EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(kTotal) - kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    const int seq = kTotal - static_cast<int>(kCap) + static_cast<int>(i);
    const TraceEvent e = tracer.at(i);
    EXPECT_EQ(e.tid, static_cast<std::uint32_t>(seq % 4));
    if (seq % 3 == 0) {
      EXPECT_EQ(e.ph, TracePhase::kCounter);
      EXPECT_EQ(e.value, seq % 7);
    } else {
      EXPECT_EQ(e.ph, TracePhase::kInstant);
      EXPECT_EQ(e.value, seq);
    }
  }
  // Compaction keeps memory proportional to retained events, not to the
  // 300k pushed: generous bound of 64 KiB reclaim slack + retained bytes.
  EXPECT_LT(tracer.encoded_bytes(), kCap * sizeof(TraceEvent) + (1u << 17));
}

TEST(EventTracer, DisabledTracerRecordsNothing) {
  sim::Simulator sim;
  EventTracer tracer(sim, 8);
  ASSERT_FALSE(tracer.enabled());  // disabled is the default
  tracer.instant("a", "test");
  tracer.counter("b", "test", 7);
  tracer.complete("c", "test", sim::TimePoint{}, sim::micros(1));
  { ScopedSpan span(&tracer, "d", "test"); }
  { ScopedSpan span(nullptr, "e", "test"); }  // null tracer: also a no-op
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, ExportContainsLaneMetadataAndEvents) {
  sim::Simulator sim;
  EventTracer tracer(sim, 16);
  tracer.set_enabled(true);
  tracer.set_track_name(3, "log0");
  tracer.complete("log.append", "log", sim::TimePoint{1'500}, sim::micros(2), 3);
  tracer.instant_value("wb.enqueue", "wb", 4, 3);
  tracer.counter("depth", "io", 2, 3);
  const std::string json = tracer.export_chrome_json();
  // Lane metadata precedes events; timestamps are microseconds with
  // fixed 3-digit ns fraction for byte-stable output.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"log0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos);
}

// ----------------------------------------------- end-to-end determinism

struct ObsRun {
  std::string trace_json;
  std::string metrics_json;
};

// A short clustered write workload through the full instrumented driver,
// with tracing on: the obs export must be a pure function of the seed.
ObsRun run_instrumented(std::uint64_t seed) {
  sim::Simulator sim;
  disk::DiskDevice log_disk(sim, disk::small_test_disk());
  disk::DiskDevice data_disk(sim, disk::small_test_disk());
  core::format_log_disk(log_disk);
  core::TrailDriver driver(sim, log_disk);
  obs::Obs obs(sim, 1 << 12);
  obs.tracer.set_enabled(true);
  driver.attach_obs(&obs);
  const io::DeviceId dev = driver.add_data_disk(data_disk);
  driver.mount();

  const disk::Lba sectors = data_disk.geometry().total_sectors();
  struct Proc {
    sim::Rng rng;
    int issued = 0;
    std::vector<std::byte> data;
    std::function<void()> next;
  };
  auto st = std::make_shared<Proc>();
  st->rng = sim::Rng(seed);
  bool done = false;
  st->next = [st, &driver, dev, sectors, &done] {
    if (st->issued >= 40) {
      done = true;
      return;
    }
    ++st->issued;
    const auto count = static_cast<std::uint32_t>(st->rng.uniform(1, 4));
    const auto lba = static_cast<disk::Lba>(
        st->rng.uniform(0, static_cast<std::int64_t>(sectors - count - 1)));
    st->data.assign(static_cast<std::size_t>(count) * disk::kSectorSize,
                    std::byte(static_cast<std::uint8_t>(st->issued)));
    driver.submit_write(io::BlockAddr{dev, lba}, count, st->data, [st] {
      if (st->next) st->next();
    });
  };
  sim.schedule(sim::micros(1), [st] { st->next(); });
  while (!done) {
    if (!sim.step()) throw std::runtime_error("obs workload stalled");
  }
  st->next = {};  // break the st <-> next shared_ptr cycle
  bool drained = false;
  driver.drain([&] { drained = true; });
  while (!drained) {
    if (!sim.step()) throw std::runtime_error("obs drain stalled");
  }
  return ObsRun{obs.tracer.export_chrome_json(), obs.metrics.to_json()};
}

TEST(ObsDeterminism, SameSeedExportsIdenticalBytes) {
  const ObsRun a = run_instrumented(7);
  const ObsRun b = run_instrumented(7);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // And the run actually produced substance, not two empty exports.
  EXPECT_NE(a.trace_json.find("\"log.append\""), std::string::npos);
  EXPECT_NE(a.metrics_json.find("\"trail.sync_write_ns\""), std::string::npos);
  EXPECT_NE(a.metrics_json.find("\"io.queue_depth.data0\""), std::string::npos);
}

TEST(ObsDeterminism, DifferentSeedsDivergeInTrace) {
  const ObsRun a = run_instrumented(7);
  const ObsRun b = run_instrumented(8);
  EXPECT_NE(a.trace_json, b.trace_json);
}

TEST(ObsDeterminism, TraceOutlivesTheDriverThatEmittedIt) {
  // Counter lanes named at run time (under a scope's metric prefix) stay
  // valid after the driver that emitted them is gone, as they are after
  // a crash and remount.
  sim::Simulator sim;
  disk::DiskDevice log_disk(sim, disk::small_test_disk());
  disk::DiskDevice data_disk(sim, disk::small_test_disk());
  core::format_log_disk(log_disk);
  obs::Obs obs(sim, 1 << 12);
  obs.tracer.set_enabled(true);
  {
    core::TrailDriver driver(sim, log_disk);
    core::ObsScope scope;
    scope.metric_prefix = "shard.3.";
    driver.attach_obs(&obs, scope);
    const io::DeviceId dev = driver.add_data_disk(data_disk);
    driver.mount();
    const std::vector<std::byte> data(disk::kSectorSize, std::byte{1});
    bool acked = false;
    driver.submit_write(io::BlockAddr{dev, 8}, 1, data, [&] { acked = true; });
    while (!acked) ASSERT_TRUE(sim.step());
    driver.crash();
  }
  const std::string trace = obs.tracer.export_chrome_json();
  EXPECT_NE(trace.find("{\"name\":\"shard.3.trail.log_queue_depth\",\"cat\":\"log\""),
            std::string::npos);
  EXPECT_EQ(obs.tracer.own_name("x.y"), obs.tracer.own_name(std::string("x.") + "y"));
}

}  // namespace
}  // namespace trail::obs
