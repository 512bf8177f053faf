// Parameterized property sweeps across the configuration space:
// durability under every (threshold x batching x recovery-policy) corner,
// recovery at many log-ring wrap offsets, and prediction across zones and
// spindle-drift magnitudes.
#include <gtest/gtest.h>

#include <tuple>

#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::TrailConfig;

// ---------------------------------------------------------------------------
// Grid 1: crash durability across driver configurations.
// ---------------------------------------------------------------------------

using ConfigParams = std::tuple<double /*threshold*/, std::uint32_t /*max_req*/,
                                bool /*recovery write_back*/, int /*pending*/>;

class CrashConfigGrid : public TrailFixture,
                        public ::testing::WithParamInterface<ConfigParams> {
 protected:
  CrashConfigGrid() : TrailFixture(2) {}
};

TEST_P(CrashConfigGrid, AckedWritesSurvive) {
  const auto [threshold, max_req, write_back, pending] = GetParam();
  TrailConfig cfg;
  cfg.track_utilization_threshold = threshold;
  cfg.max_requests_per_physical = max_req;
  start(cfg);

  // A settled phase, then a pending phase, then crash.
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 8)}, make_pattern(3, 100 + i));
  settle();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < pending; ++i)
    write_sync({devices[static_cast<std::size_t>(i) % 2], static_cast<disk::Lba>(400 + i * 4)},
               make_pattern(2, 200 + i));

  TrailConfig recfg = cfg;
  recfg.recovery_write_back = write_back;
  crash_and_remount(recfg);
  EXPECT_GE(driver->last_recovery().records_found, static_cast<std::uint32_t>(pending));
  verify_all_acknowledged_durable();
  settle();
  verify_expected_on_data_disks();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrashConfigGrid,
    ::testing::Combine(::testing::Values(0.0, 0.30, 1.0),   // threshold
                       ::testing::Values(0u, 1u, 4u),        // batching cap
                       ::testing::Bool(),                    // recovery write-back
                       ::testing::Values(1, 9)),             // pending records
    [](const ::testing::TestParamInfo<ConfigParams>& info) {
      // (no structured bindings: the [] commas would split the macro args;
      //  built with += because the chained operator+ form trips GCC 12's
      //  -Wrestrict false positive at -O3, gcc PR105329)
      std::string name = "t";
      name += std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
      name += "_m";
      name += std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_wb" : "_adopt";
      name += "_p";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Grid 2: recovery at many ring-wrap offsets. The binary search must find
// the youngest record wherever the live arc sits on the circle.
// ---------------------------------------------------------------------------

class WrapOffsetGrid : public TrailFixture, public ::testing::WithParamInterface<int> {
 protected:
  WrapOffsetGrid() : TrailFixture(1) {}
};

TEST_P(WrapOffsetGrid, RecoversAfterNWrapSteps) {
  const int prewrites = GetParam();
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one track per write: fast ring walk
  cfg.max_requests_per_physical = 1;
  start(cfg);

  // Walk the tail `prewrites` tracks around the 77-track ring (settled, so
  // the arc of stale records rotates with it).
  for (int i = 0; i < prewrites; ++i) {
    write_sync({devices[0], static_cast<disk::Lba>((i % 50) * 2)}, make_pattern(1, i));
    // Let write-back keep up so the ring never jams.
    if (i % 8 == 7) settle();
  }
  settle();
  // Now the pending tail at an arbitrary ring offset.
  data_disks[0]->crash_halt();
  for (int i = 0; i < 5; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(600 + i * 2)}, make_pattern(1, 500 + i));
  crash_and_remount();
  EXPECT_GE(driver->last_recovery().records_found, 5u);
  EXPECT_LE(driver->last_recovery().tracks_scanned, locate_scan_bound(log_disk->geometry()))
      << "wrapped ring must be binary-searchable";
  verify_all_acknowledged_durable();
}

INSTANTIATE_TEST_SUITE_P(Offsets, WrapOffsetGrid,
                         ::testing::Values(0, 13, 38, 70, 76, 80, 95, 150, 231));

// ---------------------------------------------------------------------------
// Grid 3: head prediction across zones and drift magnitudes.
// ---------------------------------------------------------------------------

using PredictParams = std::tuple<disk::TrackId, double /*drift ppm*/>;

class PredictionGrid : public ::testing::TestWithParam<PredictParams> {};

TEST_P(PredictionGrid, FreshReferencePredictionAvoidsRotation) {
  const auto [track, drift] = GetParam();
  sim::Simulator sim;
  disk::DiskProfile profile = disk::small_test_disk();
  profile.rotation_drift_ppm = drift;
  disk::DiskDevice dev(sim, profile);
  io::HeadPredictor predictor(dev.geometry(), profile.rotation_time());
  predictor.set_delta(profile.command_overhead);

  // Reference freshly set by a read; predict + write immediately: even
  // with drift, the elapsed time is tiny so the prediction must hit.
  disk::SectorBuf buf{};
  bool done = false;
  dev.read(dev.geometry().first_lba_of_track(track), 1, buf, [&] { done = true; });
  while (!done) ASSERT_TRUE(sim.step());
  predictor.set_reference(sim.now(), track, 0);

  const std::uint32_t target = predictor.predict_sector(track, sim.now());
  const sim::TimePoint t0 = sim.now();
  bool written = false;
  sim::TimePoint t_done;
  dev.write(dev.geometry().first_lba_of_track(track) + target, 1, buf, [&] {
    written = true;
    t_done = sim.now();
  });
  while (!written) ASSERT_TRUE(sim.step());
  EXPECT_LE((t_done - t0).ns(),
            (profile.command_overhead + profile.sector_time(track) * 3).ns())
      << "track " << track << " drift " << drift;
}

INSTANTIATE_TEST_SUITE_P(
    ZonesAndDrift, PredictionGrid,
    ::testing::Combine(::testing::Values<disk::TrackId>(0, 19, 21, 59, 61, 79),
                       ::testing::Values(-200.0, -50.0, 0.0, 50.0, 200.0)));

}  // namespace
}  // namespace trail::testing
