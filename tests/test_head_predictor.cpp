#include <gtest/gtest.h>

#include <cmath>

#include "core/delta_calibrator.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/head_predictor.hpp"
#include "sim/simulator.hpp"

namespace trail::core {
namespace {

using io::HeadPredictor;

class HeadPredictorTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskProfile profile = disk::small_test_disk();
  disk::DiskDevice dev{sim, profile};
  HeadPredictor predictor{dev.geometry(), profile.rotation_time()};

  /// Read one sector synchronously and refresh the predictor reference
  /// exactly the way the driver does.
  void position(disk::TrackId track, std::uint32_t sector) {
    disk::SectorBuf buf{};
    bool done = false;
    dev.read(dev.geometry().first_lba_of_track(track) + sector, 1, buf, [&] { done = true; });
    while (!done) ASSERT_TRUE(sim.step());
    predictor.set_reference(sim.now(), track, sector);
  }
};

TEST_F(HeadPredictorTest, ThrowsWithoutReference) {
  EXPECT_FALSE(predictor.has_reference());
  EXPECT_THROW((void)predictor.angle_at(sim.now()), std::logic_error);
}

TEST_F(HeadPredictorTest, ReferenceAngleMatchesDevice) {
  position(0, 3);
  // Immediately after positioning, predictor and device agree (drift 0).
  EXPECT_NEAR(predictor.angle_at(sim.now()), dev.angle_at(sim.now()), 1e-6);
}

TEST_F(HeadPredictorTest, AngleTracksDeviceOverTime) {
  position(2, 5);
  for (int i = 1; i <= 20; ++i) {
    const sim::TimePoint t = sim.now() + sim::millis(i * 7);
    double diff = std::abs(predictor.angle_at(t) - dev.angle_at(t));
    diff = std::min(diff, 1.0 - diff);  // circular distance
    EXPECT_LT(diff, 1e-6) << "at offset " << i;
  }
}

TEST_F(HeadPredictorTest, PredictedSectorWriteAvoidsRotation) {
  predictor.set_delta(profile.command_overhead);
  // Repeat on several tracks across zones.
  for (disk::TrackId track : {0u, 21u, 70u}) {
    position(track, 0);
    const std::uint32_t target = predictor.predict_sector(track, sim.now());
    disk::SectorBuf buf{};
    const sim::TimePoint t0 = sim.now();
    sim::TimePoint done_at;
    bool done = false;
    dev.write(dev.geometry().first_lba_of_track(track) + target, 1, buf, [&] {
      done = true;
      done_at = sim.now();
    });
    while (!done) ASSERT_TRUE(sim.step());
    const sim::Duration latency = done_at - t0;
    EXPECT_LE(latency, profile.command_overhead + profile.sector_time(track) * 3)
        << "track " << track << ": predicted write paid rotation";
  }
}

TEST_F(HeadPredictorTest, UnderestimatedDeltaPaysFullRotation) {
  predictor.set_delta(sim::Duration{0});  // no overhead compensation
  position(0, 0);
  const std::uint32_t target = predictor.predict_sector(0, sim.now());
  disk::SectorBuf buf{};
  const sim::TimePoint t0 = sim.now();
  sim::TimePoint done_at;
  bool done = false;
  dev.write(dev.geometry().first_lba_of_track(0) + target, 1, buf, [&] {
    done = true;
    done_at = sim.now();
  });
  while (!done) ASSERT_TRUE(sim.step());
  // The sector passed during command processing: nearly a full revolution.
  EXPECT_GE(done_at - t0, profile.command_overhead + profile.rotation_time() / 2);
}

TEST_F(HeadPredictorTest, DeltaSectorsDependsOnZone) {
  predictor.set_delta(profile.command_overhead);
  // Outer zone (24 spt) needs more delta sectors than inner (16 spt) for
  // the same delta time.
  const std::uint32_t outer = predictor.delta_sectors(0);
  const std::uint32_t inner = predictor.delta_sectors(dev.geometry().track_count() - 1);
  EXPECT_GT(outer, inner);
}

TEST_F(HeadPredictorTest, DriftDegradesPredictionOverTime) {
  disk::DiskProfile drifty = disk::small_test_disk();
  drifty.rotation_drift_ppm = 2000.0;  // exaggerated for the test
  disk::DiskDevice dev2{sim, drifty};
  HeadPredictor pred2{dev2.geometry(), drifty.rotation_time()};  // knows only nominal

  disk::SectorBuf buf{};
  bool done = false;
  dev2.read(0, 1, buf, [&] { done = true; });
  while (!done) ASSERT_TRUE(sim.step());
  pred2.set_reference(sim.now(), 0, 0);

  auto circ_err = [&](sim::TimePoint t) {
    double d = std::abs(pred2.angle_at(t) - dev2.angle_at(t));
    return std::min(d, 1.0 - d);
  };
  const double soon = circ_err(sim.now() + sim::millis(10));
  const double late = circ_err(sim.now() + sim::seconds(2));
  EXPECT_LT(soon, 0.01);
  EXPECT_GT(late, 0.1) << "drift should accumulate without re-referencing";
}

TEST(DeltaCalibrator, FindsMinimalDelta) {
  sim::Simulator sim;
  disk::DiskProfile p = disk::small_test_disk();
  disk::DiskDevice dev{sim, p};
  const auto result = DeltaCalibrator::run(sim, dev, /*probe_track=*/5);

  // Analytical expectation: overhead / sector_time, rounded up, offset by
  // the head sitting at the *end* of sector 0 when the write is issued.
  const double sectors = static_cast<double>(p.command_overhead.ns()) /
                         static_cast<double>(p.sector_time(5).ns());
  EXPECT_GE(result.delta_sectors + 1.0, sectors);
  EXPECT_LE(static_cast<double>(result.delta_sectors), sectors + 2.0);
  EXPECT_EQ(result.delta_time, p.sector_time(5) * result.delta_sectors);

  // Latencies: below delta -> ~ full rotation; at/above delta -> short.
  const auto& lat = result.probe_latency;
  ASSERT_GT(lat.size(), result.delta_sectors);
  for (std::uint32_t d = 0; d < result.delta_sectors; ++d)
    EXPECT_GT(lat[d], p.command_overhead + p.rotation_time() / 2) << "delta " << d;
  EXPECT_LT(lat[result.delta_sectors], p.command_overhead + p.rotation_time() / 2);
}

TEST(DeltaCalibrator, MatchesPaperScaleOnSt41601n) {
  sim::Simulator sim;
  disk::DiskProfile p = disk::st41601n();
  disk::DiskDevice dev{sim, p};
  const auto result = DeltaCalibrator::run(sim, dev, /*probe_track=*/100);
  // §3.1: "δ value is less than 15 for a Seagate ST41601N drive".
  EXPECT_GT(result.delta_sectors, 0u);
  EXPECT_LT(result.delta_sectors, 15u);
}

}  // namespace
}  // namespace trail::core
