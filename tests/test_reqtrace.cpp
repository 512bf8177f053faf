// Request-scoped causal attribution (obs/req.hpp): the phase-partition
// invariant on single and 4-shard seeded workloads, the flight
// recorder's ring semantics and codec, and the OpenMetrics exposition's
// determinism + shard-label lifting.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/check.hpp"
#include "core/format_tool.hpp"
#include "core/sharded_driver.hpp"
#include "core/trail_driver.hpp"
#include "disk/profile.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using obs::FlightRecord;
using obs::FlightRecorder;
using obs::ReqPhase;
using obs::ReqTracker;

// ---------------------------------------------------------------------------
// ReqTracker unit behavior
// ---------------------------------------------------------------------------

struct TrackerRig {
  sim::Simulator sim;
  obs::Obs obs{sim};
};

TEST(ReqTracker, PhasesPartitionTheRequestExactly) {
  TrackerRig rig;
  ReqTracker tracker(rig.obs, {});
  const sim::TimePoint t0 = rig.sim.now();
  const std::uint64_t id = tracker.open(t0, 4, /*direct=*/false);
  tracker.stamp(id, ReqPhase::kQueue, t0 + sim::micros(100));
  // Service span of 300 us with a 120 us positioning estimate: position
  // gets the estimate, transfer the remainder.
  tracker.stamp_service(id, sim::micros(120), t0 + sim::micros(400));
  tracker.finish(id, t0 + sim::micros(400));

  EXPECT_EQ(tracker.finished(), 1u);
  EXPECT_EQ(tracker.mismatches(), 0u);
  EXPECT_EQ(tracker.open_count(), 0u);
  EXPECT_EQ(tracker.phase_ns_total(), tracker.total_ns_total());
  EXPECT_EQ(rig.obs.metrics.histogram("req.total_ns").sum(), sim::micros(400).ns());
  EXPECT_EQ(rig.obs.metrics.histogram("req.phase.queue").sum(), sim::micros(100).ns());
  EXPECT_EQ(rig.obs.metrics.histogram("req.phase.position").sum(), sim::micros(120).ns());
  EXPECT_EQ(rig.obs.metrics.histogram("req.phase.transfer").sum(), sim::micros(180).ns());
  // The finished request landed in the shared flight ring.
  ASSERT_EQ(rig.obs.flight.size(), 1u);
  EXPECT_EQ(rig.obs.flight.at(0).sectors, 4u);
  EXPECT_EQ(rig.obs.flight.at(0).total_ns, sim::micros(400).ns());
}

TEST(ReqTracker, PositionEstimateClampedIntoServiceInterval) {
  TrackerRig rig;
  ReqTracker tracker(rig.obs, {});
  const sim::TimePoint t0 = rig.sim.now();
  const std::uint64_t id = tracker.open(t0, 1, false);
  // Estimate exceeds the actual service span: everything becomes
  // position, transfer zero — the partition must stay exact regardless.
  tracker.stamp_service(id, sim::micros(999), t0 + sim::micros(50));
  tracker.finish(id, t0 + sim::micros(50));
  EXPECT_EQ(tracker.mismatches(), 0u);
  EXPECT_EQ(rig.obs.metrics.histogram("req.phase.position").sum(), sim::micros(50).ns());
  EXPECT_EQ(rig.obs.metrics.histogram("req.phase.transfer").sum(), 0);
  EXPECT_EQ(tracker.phase_ns_total(), tracker.total_ns_total());
}

TEST(ReqTracker, UnstampedTimeCountsAsMismatch) {
  TrackerRig rig;
  ReqTracker tracker(rig.obs, {});
  const sim::TimePoint t0 = rig.sim.now();
  const std::uint64_t id = tracker.open(t0, 1, false);
  // finish() an interval no stamp ever covered: the phases cannot sum
  // to the end-to-end latency.
  tracker.finish(id, t0 + sim::micros(10));
  EXPECT_EQ(tracker.mismatches(), 1u);
  EXPECT_EQ(rig.obs.metrics.counter("req.mismatch").value(), 1u);
}

TEST(ReqTracker, AbandonAllDropsOpenContextsWithoutMismatch) {
  TrackerRig rig;
  ReqTracker tracker(rig.obs, {});
  (void)tracker.open(rig.sim.now(), 1, false);
  (void)tracker.open(rig.sim.now(), 2, true);
  EXPECT_EQ(tracker.open_count(), 2u);
  tracker.abandon_all();
  EXPECT_EQ(tracker.open_count(), 0u);
  EXPECT_EQ(tracker.mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder ring + codec
// ---------------------------------------------------------------------------

FlightRecord sample_record(std::uint64_t i) {
  FlightRecord r;
  r.id = i + 1;
  r.shard = static_cast<std::uint32_t>(i % 3);
  r.sectors = static_cast<std::uint32_t>(1 + i % 7);
  r.flags = i % 4 == 0 ? FlightRecord::kFlagDirect : std::uint8_t{0};
  r.submit_ns = static_cast<std::int64_t>(i) * 2'083'333;
  r.total_ns = 2'000'000 + static_cast<std::int64_t>(i % 5) * 111;
  const auto queue = static_cast<std::int64_t>(i % 2) * 7;
  r.phase_ns[static_cast<std::size_t>(ReqPhase::kQueue)] = queue;
  r.phase_ns[static_cast<std::size_t>(ReqPhase::kPosition)] = 833'333;
  r.phase_ns[static_cast<std::size_t>(ReqPhase::kTransfer)] = r.total_ns - queue - 833'333;
  return r;
}

TEST(FlightRecorder, WraparoundEvictsOldestAndDecodesExactly) {
  FlightRecorder ring(8);
  std::vector<FlightRecord> pushed;
  for (std::uint64_t i = 0; i < 20; ++i) {
    pushed.push_back(sample_record(i));
    ring.push(pushed.back());
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);
  // The retained window is the last 8 pushes, decoded bit-exactly
  // through the delta/mask codec despite the evictions.
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring.at(i), pushed[12 + i]) << i;
}

TEST(FlightRecorder, SteadyStateRecordsEncodeCompactly) {
  FlightRecorder ring(1 << 12);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    FlightRecord r = sample_record(i);
    r.shard = 0;
    r.sectors = 4;  // monotone ids, constant shape: the common case
    ring.push(r);
  }
  EXPECT_LT(ring.encoded_bytes() / 1000, sizeof(FlightRecord) / 2)
      << "delta/mask encoding lost its advantage";
}

TEST(FlightRecorder, ShrinkingCapacityDropsOldest) {
  FlightRecorder ring(16);
  for (std::uint64_t i = 0; i < 16; ++i) ring.push(sample_record(i));
  ring.set_capacity(4);
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ring.at(i), sample_record(12 + i));
}

TEST(FlightRecorder, AtRejectsOutOfRangeIndex) {
  // Bounds are checked in every build: an index past the retained window
  // must not decode beyond the end of the byte stream.
  FlightRecorder ring(4);
  EXPECT_THROW((void)ring.at(0), std::out_of_range);
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(sample_record(i));
  EXPECT_EQ(ring.at(3), sample_record(5));
  EXPECT_THROW((void)ring.at(4), std::out_of_range);
  EXPECT_THROW((void)ring.at(1000), std::out_of_range);
}

TEST(FlightRecorder, DumpIsDeterministicIntegerText) {
  FlightRecorder ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) ring.push(sample_record(i));
  const std::string dump = ring.dump();
  EXPECT_NE(dump.find("flight: 3 records retained, 0 dropped"), std::string::npos) << dump;
  EXPECT_NE(dump.find("id=1 "), std::string::npos) << dump;
  EXPECT_EQ(dump.find('.'), std::string::npos) << "float formatting crept into the dump";
  EXPECT_EQ(dump, ring.dump());
  // Tail selection keeps only the newest records.
  const std::string tail = ring.dump_tail(1);
  EXPECT_EQ(tail.find("id=1 "), std::string::npos) << tail;
  EXPECT_NE(tail.find("id=3 "), std::string::npos) << tail;
}

// ---------------------------------------------------------------------------
// Driver integration: the audited invariant on real write paths
// ---------------------------------------------------------------------------

class ReqTraceDriverTest : public TrailFixture {
 protected:
  /// Like start(), but with observability attached before mount (the
  /// fixture's start() mounts immediately).
  void start_observed(obs::Obs& obs) {
    driver = std::make_unique<core::TrailDriver>(sim, *log_disk);
    devices.clear();
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->attach_obs(&obs);
    driver->mount();
  }
};

TEST_F(ReqTraceDriverTest, PhaseSumsEqualEndToEndAtQuiesce) {
  obs::Obs obs(sim);
  start_observed(obs);
  sim::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const auto count = static_cast<std::uint32_t>(rng.uniform(1, 4));
    write_sync({devices[0], static_cast<disk::Lba>(rng.uniform(0, 1400))},
               make_pattern(count, static_cast<std::uint64_t>(i)));
  }
  settle();

  obs::ReqTracker* tracker = driver->req_tracker();
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->finished(), 60u);
  EXPECT_EQ(tracker->mismatches(), 0u);
  EXPECT_EQ(tracker->phase_ns_total(), tracker->total_ns_total());
  // Histogram view of the same invariant: the phase histograms sum to
  // the end-to-end histogram, in integer nanoseconds.
  std::int64_t phase_sum = 0;
  for (const char* phase : {"queue", "position", "transfer"})
    phase_sum += obs.metrics.histogram(std::string("req.phase.") + phase).sum();
  EXPECT_EQ(phase_sum, obs.metrics.histogram("req.total_ns").sum());
  EXPECT_GT(obs.metrics.histogram("req.total_ns").count(), 0u);
  // Every acked request left a flight record.
  EXPECT_EQ(obs.flight.size(), 60u);
  // The driver's own audit asserts the same thing.
  audit::Report report;
  driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ReqTraceDriverTest, AuditPassesMidFlightToo) {
  obs::Obs obs(sim);
  start_observed(obs);
  bool acked = false;
  const std::vector<std::byte> data = make_pattern(2, 7);
  driver->submit_write({devices[0], 100}, 2, data, [&] { acked = true; });
  // Step a handful of events with the request still open: the
  // buffered-until-finish design keeps the histogram invariant exact at
  // every instant, so the non-quiescent audit must already pass.
  for (int i = 0; i < 3 && sim.step(); ++i) {
    audit::Report report;
    driver->run_audit(report, /*quiescent=*/false);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
  while (!acked) ASSERT_TRUE(sim.step());
  settle();
}

// ---------------------------------------------------------------------------
// Sharded integration: per-shard scopes
// ---------------------------------------------------------------------------

struct ShardedReqRig {
  sim::Simulator sim;
  std::vector<std::unique_ptr<disk::DiskDevice>> log_disks;
  std::unique_ptr<disk::DiskDevice> data_disk;
  std::unique_ptr<core::ShardedDriver> driver;
  io::DeviceId dev;
  obs::Obs obs{sim};

  explicit ShardedReqRig(std::size_t shards) {
    for (std::size_t i = 0; i < shards; ++i) {
      log_disks.push_back(std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk()));
      core::format_log_disk(*log_disks.back());
    }
    data_disk = std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk());
    std::vector<disk::DiskDevice*> raw;
    for (auto& d : log_disks) raw.push_back(d.get());
    driver = std::make_unique<core::ShardedDriver>(sim, raw);
    driver->attach_obs(&obs);
    dev = driver->add_data_disk(*data_disk);
    driver->mount();
  }

  /// Seeded async burst across many extents (so every shard sees
  /// traffic), then full drain.
  void run_burst(std::uint64_t seed, int writes) {
    sim::Rng rng(seed);
    int acked = 0;
    const std::uint32_t ext = driver->config().extent_sectors;
    for (int i = 0; i < writes; ++i) {
      // 22 extents of 64 sectors stay inside the 1,520-sector test disk.
      const auto extent = static_cast<disk::Lba>(rng.uniform(0, 22));
      const auto count = static_cast<std::uint32_t>(rng.uniform(1, 4));
      auto data = std::make_shared<std::vector<std::byte>>(
          make_pattern(count, static_cast<std::uint64_t>(i)));
      driver->submit_write({dev, extent * ext}, count, *data, [&acked, data] { ++acked; });
    }
    while (acked < writes) ASSERT_TRUE(sim.step());
    bool drained = false;
    driver->drain([&] { drained = true; });
    while (!drained) ASSERT_TRUE(sim.step());
  }
};

TEST(ShardedReqTrace, FourShardPhaseSumsAuditedAtQuiesce) {
  ShardedReqRig rig(4);
  rig.run_burst(23, 80);

  std::uint64_t finished = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    obs::ReqTracker* tracker = rig.driver->shard(k).req_tracker();
    ASSERT_NE(tracker, nullptr) << "shard " << k;
    EXPECT_EQ(tracker->mismatches(), 0u) << "shard " << k;
    EXPECT_EQ(tracker->open_count(), 0u) << "shard " << k;
    EXPECT_EQ(tracker->phase_ns_total(), tracker->total_ns_total()) << "shard " << k;
    finished += tracker->finished();
  }
  EXPECT_GE(finished, 80u);  // splits open one context per chunk
  // Each chunk is a shard's own request: its queue phase ends at the
  // dispatch of the physical write carrying its last sector.
  std::uint64_t queue_count = 0;
  for (std::size_t k = 0; k < 4; ++k)
    queue_count += rig.obs.metrics
                       .histogram("shard." + std::to_string(k) + ".req.phase.queue")
                       .count();
  EXPECT_EQ(queue_count, finished);

  audit::Report report;
  rig.driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ShardedReqTrace, CrashAbandonsOpenContexts) {
  ShardedReqRig rig(2);
  sim::Rng rng(5);
  const std::uint32_t ext = rig.driver->config().extent_sectors;
  for (int i = 0; i < 10; ++i) {
    auto data = std::make_shared<std::vector<std::byte>>(make_pattern(1, 99));
    rig.driver->submit_write({rig.dev, static_cast<disk::Lba>(rng.uniform(0, 20)) * ext}, 1,
                             *data, [data] {});
  }
  rig.driver->crash();
  for (std::size_t k = 0; k < 2; ++k) {
    obs::ReqTracker* tracker = rig.driver->shard(k).req_tracker();
    ASSERT_NE(tracker, nullptr);
    EXPECT_EQ(tracker->open_count(), 0u) << "crash left contexts open on shard " << k;
  }
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------------

TEST(OpenMetrics, SameSeedRunsAreByteIdentical) {
  auto run = [] {
    ShardedReqRig rig(4);
    rig.run_burst(31, 40);
    return rig.obs.metrics.to_openmetrics();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  ASSERT_GE(a.size(), 6u);
  EXPECT_EQ(a.substr(a.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, ShardPrefixesBecomeLabels) {
  ShardedReqRig rig(4);
  rig.run_burst(41, 40);
  const std::string om = rig.obs.metrics.to_openmetrics();
  // The per-shard "shard.<k>." prefix is lifted into a shard label on a
  // single family, not mangled into per-shard metric names.
  for (int k = 0; k < 4; ++k) {
    const std::string label = "trail_req_total_ns{shard=\"" + std::to_string(k) + "\"";
    EXPECT_NE(om.find(label), std::string::npos) << "missing series: " << label << "\n" << om;
  }
  EXPECT_EQ(om.find("trail_shard_0_"), std::string::npos)
      << "shard prefix leaked into a metric name";
  // Exactly one TYPE header per family even with four labeled series.
  std::size_t type_headers = 0;
  for (std::size_t pos = om.find("# TYPE trail_req_total_ns summary"); pos != std::string::npos;
       pos = om.find("# TYPE trail_req_total_ns summary", pos + 1))
    ++type_headers;
  EXPECT_EQ(type_headers, 1u);
}

TEST(OpenMetrics, UnshardedNamesCarryNoLabel) {
  TrackerRig rig;
  rig.obs.metrics.counter("io.dispatch_skips").inc();
  rig.obs.metrics.gauge("trail.log_queue_depth").set(3);
  rig.obs.metrics.histogram("req.total_ns").record(sim::micros(1));
  const std::string om = rig.obs.metrics.to_openmetrics();
  EXPECT_NE(om.find("trail_io_dispatch_skips_total 1\n"), std::string::npos) << om;
  EXPECT_NE(om.find("trail_trail_log_queue_depth 3\n"), std::string::npos) << om;
  EXPECT_NE(om.find("trail_req_total_ns_count 1\n"), std::string::npos) << om;
}

}  // namespace
}  // namespace trail::testing
