// ShardedDriver: extent routing, request splitting, per-shard
// acknowledgements, per-shard recovery under both policies, and the
// array-level audit invariants.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audit/check.hpp"
#include "audit/log_verifier.hpp"
#include "core/format_tool.hpp"
#include "core/sharded_driver.hpp"
#include "disk/profile.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::ShardedConfig;
using core::ShardedDriver;
using disk::kSectorSize;

/// A sharded stack over small test disks: one log disk per shard plus
/// shared data disks, with an acked-write model for durability checks.
struct ShardedRig {
  sim::Simulator sim;
  std::vector<std::unique_ptr<disk::DiskDevice>> log_disks;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<ShardedDriver> driver;
  std::vector<io::DeviceId> devices;
  /// (device index, lba) -> expected sector content for acknowledged writes.
  std::map<std::pair<std::uint16_t, disk::Lba>, std::vector<std::byte>> acked;

  explicit ShardedRig(std::size_t shards, int data_disk_count = 2,
                      std::vector<disk::DiskProfile> log_profiles = {}) {
    for (std::size_t i = 0; i < shards; ++i) {
      const disk::DiskProfile profile =
          i < log_profiles.size() ? log_profiles[i] : disk::small_test_disk();
      log_disks.push_back(std::make_unique<disk::DiskDevice>(sim, profile));
      core::format_log_disk(*log_disks.back());
    }
    for (int i = 0; i < data_disk_count; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk()));
  }

  void start(ShardedConfig config = {}) {
    std::vector<disk::DiskDevice*> raw;
    raw.reserve(log_disks.size());
    for (auto& d : log_disks) raw.push_back(d.get());
    driver = std::make_unique<ShardedDriver>(sim, raw, config);
    devices.clear();
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->mount();
  }

  /// Async write that records its content into `acked` when (and only
  /// when) the acknowledgement fires.
  void write_async(io::BlockAddr addr, std::uint32_t sectors, std::uint64_t seed) {
    auto data = std::make_shared<std::vector<std::byte>>(make_pattern(sectors, seed));
    driver->submit_write(addr, sectors, *data, [this, addr, sectors, data] {
      for (std::uint32_t i = 0; i < sectors; ++i)
        acked[{addr.device.index(), addr.lba + i}]
            .assign(data->begin() + static_cast<std::ptrdiff_t>(i) * kSectorSize,
                    data->begin() + static_cast<std::ptrdiff_t>(i + 1) * kSectorSize);
    });
  }

  sim::Duration write_sync(io::BlockAddr addr, std::span<const std::byte> data) {
    const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
    const sim::TimePoint t0 = sim.now();
    sim::TimePoint done = t0;
    bool fired = false;
    driver->submit_write(addr, count, data, [&] {
      fired = true;
      done = sim.now();
    });
    pump(fired);
    for (std::uint32_t i = 0; i < count; ++i)
      acked[{addr.device.index(), addr.lba + i}]
          .assign(data.begin() + static_cast<std::ptrdiff_t>(i) * kSectorSize,
                  data.begin() + static_cast<std::ptrdiff_t>(i + 1) * kSectorSize);
    return done - t0;
  }

  std::vector<std::byte> read_sync(io::BlockAddr addr, std::uint32_t count) {
    std::vector<std::byte> out(static_cast<std::size_t>(count) * kSectorSize);
    bool fired = false;
    driver->submit_read(addr, count, out, [&] { fired = true; });
    pump(fired);
    return out;
  }

  void settle() {
    bool done = false;
    driver->drain([&] { done = true; });
    pump(done);
  }

  void pump(const bool& flag) {
    while (!flag) {
      if (!sim.step()) {
        ADD_FAILURE() << "simulation stalled";
        return;
      }
    }
  }

  /// Power-fail everything and remount a fresh driver over the devices.
  void crash_and_remount(ShardedConfig config = {}) {
    driver->crash();
    driver.reset();
    for (auto& d : log_disks) d->restart();
    for (auto& d : data_disks) d->restart();
    start(config);
  }

  /// Every acknowledged write must read back intact through the driver.
  void verify_acked_durable() {
    for (const auto& [key, bytes] : acked) {
      const io::BlockAddr addr{io::DeviceId{static_cast<std::uint8_t>(key.first >> 8),
                                            static_cast<std::uint8_t>(key.first & 0xFF)},
                               key.second};
      const auto got = read_sync(addr, 1);
      ASSERT_EQ(std::memcmp(got.data(), bytes.data(), kSectorSize), 0)
          << "lost acknowledged write at device " << key.first << " lba " << key.second;
    }
  }

  void expect_clean_audit(bool quiescent) {
    audit::Report report;
    driver->run_audit(report, quiescent);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardedRouting, ExtentHashIsDeterministicAndCoversAllShards) {
  ShardedRig rig(4);
  rig.start();
  const io::DeviceId dev = rig.devices[0];
  const std::uint32_t ext = rig.driver->config().extent_sectors;
  std::set<std::size_t> hit;
  for (std::uint32_t e = 0; e < 64; ++e) {
    const std::size_t k = rig.driver->shard_of(dev, static_cast<disk::Lba>(e) * ext);
    EXPECT_EQ(k, rig.driver->shard_of(dev, static_cast<disk::Lba>(e) * ext + ext - 1))
        << "extent " << e << " not routed as a unit";
    EXPECT_EQ(k, rig.driver->shard_of(dev, static_cast<disk::Lba>(e) * ext));  // stable
    hit.insert(k);
  }
  EXPECT_EQ(hit.size(), 4u) << "64 extents left a shard unused";
  // Different devices spread differently (the hash mixes the device in).
  std::size_t diffs = 0;
  for (std::uint32_t e = 0; e < 64; ++e)
    if (rig.driver->shard_of(rig.devices[0], static_cast<disk::Lba>(e) * ext) !=
        rig.driver->shard_of(rig.devices[1], static_cast<disk::Lba>(e) * ext))
      ++diffs;
  EXPECT_GT(diffs, 0u);
}

TEST(ShardedRouting, RejectsBadConfig) {
  sim::Simulator sim;
  ShardedConfig cfg;
  cfg.extent_sectors = 0;
  disk::DiskDevice log(sim, disk::small_test_disk());
  core::format_log_disk(log);
  EXPECT_THROW(ShardedDriver(sim, {&log}, cfg), std::invalid_argument);
  EXPECT_THROW(ShardedDriver(sim, {}, ShardedConfig{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Write / read paths
// ---------------------------------------------------------------------------

TEST(ShardedIo, ShortSpanRejectedAtSubmit) {
  ShardedRig rig(2);
  rig.start();
  const std::string before = rig.driver->combined_stats().to_json();
  std::vector<std::byte> one_sector(kSectorSize, std::byte{0x33});
  bool fired = false;
  // A one-sector span submitted as two sectors, inside one extent and
  // across an extent boundary: no chunk may take a subspan past the
  // span's end, and nothing may reach a shard.
  const disk::Lba within = 10;
  const disk::Lba spanning = rig.driver->config().extent_sectors - 1;
  for (const disk::Lba lba : {within, spanning}) {
    EXPECT_THROW(rig.driver->submit_write({rig.devices[0], lba}, 2, one_sector,
                                          [&] { fired = true; }),
                 std::invalid_argument);
    EXPECT_THROW(rig.driver->submit_read({rig.devices[0], lba}, 2, one_sector,
                                         [&] { fired = true; }),
                 std::invalid_argument);
  }
  rig.sim.run_until(rig.sim.now() + sim::millis(100));  // long enough for any to complete
  EXPECT_FALSE(fired);
  EXPECT_EQ(rig.driver->combined_stats().to_json(), before);
  EXPECT_EQ(rig.driver->routed_sectors(0) + rig.driver->routed_sectors(1), 0u);
}

TEST(ShardedIo, WriteWithinOneExtentStaysOnOneShard) {
  ShardedRig rig(2);
  rig.start();
  rig.write_sync(io::BlockAddr{rig.devices[0], 10}, make_pattern(2, 1));
  const auto got = rig.read_sync(io::BlockAddr{rig.devices[0], 10}, 2);
  EXPECT_EQ(std::memcmp(got.data(), rig.acked[{rig.devices[0].index(), 10}].data(),
                        kSectorSize),
            0);
  const core::TrailStats total = rig.driver->combined_stats();
  EXPECT_EQ(total.requests_logged, 1u);
  rig.settle();
  rig.expect_clean_audit(/*quiescent=*/true);
}

TEST(ShardedIo, WriteSpanningExtentsSplitsAndReadsBack) {
  ShardedRig rig(2);
  rig.start();
  // The last sector of the first extent whose successor lives on the
  // other shard.
  const std::uint32_t ext = rig.driver->config().extent_sectors;
  disk::Lba lba = ext - 1;
  while (rig.driver->shard_of(rig.devices[0], lba) ==
         rig.driver->shard_of(rig.devices[0], lba + 1))
    lba += ext;
  const auto pattern = make_pattern(2, 7);
  rig.write_sync(io::BlockAddr{rig.devices[0], lba}, pattern);

  // One request, two shards: each logged exactly one chunk.
  EXPECT_EQ(rig.driver->shard(0).stats().requests_logged, 1u);
  EXPECT_EQ(rig.driver->shard(1).stats().requests_logged, 1u);
  EXPECT_EQ(rig.driver->routed_sectors(0), 1u);
  EXPECT_EQ(rig.driver->routed_sectors(1), 1u);

  const auto got = rig.read_sync(io::BlockAddr{rig.devices[0], lba}, 2);
  EXPECT_EQ(std::memcmp(got.data(), pattern.data(), pattern.size()), 0);
  rig.settle();
  rig.expect_clean_audit(/*quiescent=*/true);
}

TEST(ShardedIo, AckedWritesSurviveDrainToDataDisks) {
  ShardedRig rig(4, /*data_disk_count=*/2);
  rig.start();
  sim::Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const auto dev = rig.devices[static_cast<std::size_t>(rng.uniform(0, 1))];
    const auto lba = static_cast<disk::Lba>(rng.uniform(0, 1400));
    rig.write_sync(io::BlockAddr{dev, lba}, make_pattern(2, 1000 + i));
  }
  rig.settle();
  // Content went through write-back to the shared data disks.
  for (const auto& [key, bytes] : rig.acked) {
    std::vector<std::byte> got(kSectorSize);
    rig.data_disks.at(key.first & 0xFF)->store().read(key.second, 1, got);
    ASSERT_EQ(std::memcmp(got.data(), bytes.data(), kSectorSize), 0)
        << "data disk stale at lba " << key.second;
  }
  rig.expect_clean_audit(/*quiescent=*/true);
  EXPECT_GT(rig.driver->combined_stats().requests_logged, 0u);
}

// ---------------------------------------------------------------------------
// Per-shard acknowledgements
// ---------------------------------------------------------------------------

/// Shard 0 gets a glacial log disk, shard 1 a fast one. W1 routes to
/// shard 0, W2 (submitted after it) to shard 1. Each shard acks once the
/// write is on its own log disk, so W2 acks long before W1: no order
/// among unacknowledged writes holds an ack back.
TEST(ShardedAcks, FastShardAcksBeforeAnEarlierSlowShardWrite) {
  disk::DiskProfile slow = disk::small_test_disk();
  slow.command_overhead = sim::millis_f(40.0);
  ShardedRig rig(2, 1, {slow, disk::small_test_disk()});
  rig.start();
  const std::uint32_t ext = rig.driver->config().extent_sectors;
  const auto first_extent_on = [&](std::size_t k) {
    disk::Lba lba = 0;
    while (rig.driver->shard_of(rig.devices[0], lba) != k) lba += ext;
    return lba;
  };

  const auto p1 = make_pattern(1, 1);
  const auto p2 = make_pattern(1, 2);
  sim::TimePoint ack1{}, ack2{};
  bool done1 = false, done2 = false;
  rig.driver->submit_write(io::BlockAddr{rig.devices[0], first_extent_on(0)}, 1, p1, [&] {
    ack1 = rig.sim.now();
    done1 = true;
  });
  rig.driver->submit_write(io::BlockAddr{rig.devices[0], first_extent_on(1)}, 1, p2, [&] {
    ack2 = rig.sim.now();
    done2 = true;
  });
  rig.pump(done2);
  EXPECT_FALSE(done1) << "the fast shard's ack waited for the slow shard";
  rig.pump(done1);
  EXPECT_LT(ack2 + sim::millis(30), ack1);
  rig.settle();
  rig.expect_clean_audit(/*quiescent=*/true);
}

// ---------------------------------------------------------------------------
// Cross-shard crash recovery: table test over shard counts x crash points
// ---------------------------------------------------------------------------

struct CrashCase {
  std::size_t shards;
  int crash_after_steps;
};

class ShardedCrashTest : public ::testing::TestWithParam<CrashCase> {};

// Each shard recovers its own log alone; every acknowledged write must
// survive, and the array keeps working.
TEST_P(ShardedCrashTest, MergedRecoveryRespectsGlobalSequenceAndCut) {
  const CrashCase param = GetParam();
  ShardedRig rig(param.shards, 2);
  ShardedConfig cfg;
  cfg.shard.recovery_write_back = false;  // adopt: recovered records stay visible
  rig.start(cfg);

  // Chained writers hammering random extents keep every shard's log busy
  // so the crash lands mid-traffic (often mid-physical-write).
  constexpr int kWriters = 6;
  sim::Rng rng(7 + param.crash_after_steps);
  std::uint64_t seed = 0;
  // Chains outlive every pending callback (all acks die at the crash),
  // so the lambdas capture raw pointers — a captured shared_ptr would
  // make each chain own itself.
  std::vector<std::unique_ptr<std::function<void()>>> chains;
  for (int w = 0; w < kWriters; ++w) {
    chains.push_back(std::make_unique<std::function<void()>>());
    auto* chain = chains.back().get();
    *chain = [&rig, &rng, chain, &seed] {
      const auto dev = rig.devices[static_cast<std::size_t>(rng.uniform(0, 1))];
      const auto lba = static_cast<disk::Lba>(rng.uniform(0, 1400));
      auto data = std::make_shared<std::vector<std::byte>>(make_pattern(2, ++seed));
      rig.driver->submit_write(io::BlockAddr{dev, lba}, 2, *data,
                               [&rig, dev, lba, data, chain] {
                                 for (std::uint32_t i = 0; i < 2; ++i)
                                   rig.acked[{dev.index(), lba + i}].assign(
                                       data->begin() + static_cast<std::ptrdiff_t>(i) * kSectorSize,
                                       data->begin() +
                                           static_cast<std::ptrdiff_t>(i + 1) * kSectorSize);
                                 (*chain)();
                               });
    };
    (*chain)();
  }
  for (int i = 0; i < param.crash_after_steps; ++i)
    ASSERT_TRUE(rig.sim.step()) << "workload stalled before the crash point";

  rig.crash_and_remount(cfg);

  const core::ShardedRecoveryStats& rec = rig.driver->last_recovery();
  EXPECT_EQ(rec.shards.size(), param.shards);
  EXPECT_GT(rec.crashed_shards, 0u);
  rig.expect_clean_audit(/*quiescent=*/true);

  // Nothing acknowledged may be lost, and the array keeps working.
  rig.verify_acked_durable();
  rig.write_sync(io::BlockAddr{rig.devices[0], 20}, make_pattern(2, 424242));
  rig.settle();
  rig.verify_acked_durable();
  rig.expect_clean_audit(/*quiescent=*/true);
}

INSTANTIATE_TEST_SUITE_P(ShardCountsAndCrashPoints, ShardedCrashTest,
                         ::testing::Values(CrashCase{2, 60}, CrashCase{2, 150},
                                           CrashCase{2, 400}, CrashCase{4, 60},
                                           CrashCase{4, 150}, CrashCase{4, 400},
                                           CrashCase{4, 900}),
                         [](const ::testing::TestParamInfo<CrashCase>& info) {
                           return "shards" + std::to_string(info.param.shards) + "_steps" +
                                  std::to_string(info.param.crash_after_steps);
                         });

// ---------------------------------------------------------------------------
// Overlapped-mount equivalence: overlapping shard mounts on virtual time
// (and pipelining each shard's reads) is a pure performance lever. For
// the same crashed images, {overlapped, depth 8} must produce the same
// recovered state as {sequential, depth 1} — same chains, same data
// images, and fsck-clean logs — under both recovery policies.
// ---------------------------------------------------------------------------

using DataImage = std::pair<std::vector<std::byte>, std::vector<bool>>;  // bytes, written

struct MountEquivOutcome {
  std::vector<std::uint32_t> found_per_shard;  // the recovered chains
  std::uint32_t records_dropped_torn = 0;
  std::uint32_t crashed_shards = 0;
  /// Data-disk platters right after the mount, and after the drain.
  std::vector<DataImage> mounted_images;
  std::vector<DataImage> drained_images;
  /// Rendered fsck.trail report per log disk. A crash point may legally
  /// leave findings (a dropped torn record's payload sectors stay on the
  /// platter), but both recovery shapes must report the exact same ones.
  std::vector<std::string> fsck_reports;
};

std::vector<DataImage> snapshot_data_disks(const ShardedRig& rig) {
  std::vector<DataImage> images;
  for (const auto& dd : rig.data_disks) {
    const disk::Lba total = dd->store().total_sectors();
    std::vector<std::byte> bytes(static_cast<std::size_t>(total) * kSectorSize);
    std::vector<bool> written(static_cast<std::size_t>(total));
    for (disk::Lba l = 0; l < total; ++l) {
      if (!dd->store().is_written(l)) continue;
      written[static_cast<std::size_t>(l)] = true;
      dd->store().read(l, 1,
                       std::span<std::byte>(bytes).subspan(
                           static_cast<std::size_t>(l) * kSectorSize, kSectorSize));
    }
    images.emplace_back(std::move(bytes), std::move(written));
  }
  return images;
}

/// Deterministic chained-writer storm -> crash at `steps` -> remount with
/// the given recovery shape; the pre-crash half is identical across calls.
MountEquivOutcome run_mount_equivalence(std::size_t shards, int steps, bool write_back,
                                        bool overlapped, std::uint32_t depth) {
  ShardedRig rig(shards, 2);
  ShardedConfig cfg;
  cfg.shard.recovery_write_back = false;
  rig.start(cfg);
  constexpr int kWriters = 6;
  sim::Rng rng(7 + steps);
  std::uint64_t seed = 0;
  std::vector<std::unique_ptr<std::function<void()>>> chains;
  for (int w = 0; w < kWriters; ++w) {
    chains.push_back(std::make_unique<std::function<void()>>());
    auto* chain = chains.back().get();
    *chain = [&rig, &rng, chain, &seed] {
      const auto dev = rig.devices[static_cast<std::size_t>(rng.uniform(0, 1))];
      const auto lba = static_cast<disk::Lba>(rng.uniform(0, 1400));
      auto data = std::make_shared<std::vector<std::byte>>(make_pattern(2, ++seed));
      rig.driver->submit_write(io::BlockAddr{dev, lba}, 2, *data, [chain] { (*chain)(); });
    };
    (*chain)();
  }
  for (int i = 0; i < steps; ++i)
    if (!rig.sim.step()) throw std::runtime_error("workload stalled before the crash point");

  ShardedConfig rcfg;
  rcfg.shard.recovery_write_back = write_back;
  rcfg.shard.recovery_pipeline_depth = depth;
  rcfg.overlapped_mount = overlapped;
  rig.crash_and_remount(rcfg);

  MountEquivOutcome out;
  const core::ShardedRecoveryStats& rec = rig.driver->last_recovery();
  out.records_dropped_torn = rec.records_dropped_torn;
  out.crashed_shards = rec.crashed_shards;
  for (std::size_t k = 0; k < shards; ++k)
    out.found_per_shard.push_back(rec.shards[k].records_found);
  rig.expect_clean_audit(/*quiescent=*/true);
  out.mounted_images = snapshot_data_disks(rig);

  // Nothing acknowledged may be lost; then drain the adopted records and
  // snapshot the durable end-state. (Under adoption the transient pending
  // set right after mount is timing-dependent — an earlier-mounted
  // shard's write-back already drains while later shards still mount —
  // so the adopt claim is over recovered chains and final images.)
  rig.verify_acked_durable();
  rig.settle();
  out.drained_images = snapshot_data_disks(rig);
  for (const auto& ld : rig.log_disks) out.fsck_reports.push_back(audit::verify_log(*ld).to_string());
  return out;
}

void expect_same_recovery(const MountEquivOutcome& serial, const MountEquivOutcome& pipelined) {
  EXPECT_EQ(serial.found_per_shard, pipelined.found_per_shard) << "recovered chains diverged";
  EXPECT_EQ(serial.records_dropped_torn, pipelined.records_dropped_torn);
  EXPECT_EQ(serial.crashed_shards, pipelined.crashed_shards);
  EXPECT_TRUE(serial.drained_images == pipelined.drained_images) << "drained images diverged";
  EXPECT_EQ(serial.fsck_reports, pipelined.fsck_reports) << "fsck findings diverged";
}

struct MountEquivCase {
  std::size_t shards;
  int crash_after_steps;
};

class OverlappedMountEquivalence : public ::testing::TestWithParam<MountEquivCase> {};

TEST_P(OverlappedMountEquivalence, MatchesSequentialSerialRecovery) {
  const MountEquivCase param = GetParam();
  const int steps = param.crash_after_steps;
  const MountEquivOutcome adopt_serial =
      run_mount_equivalence(param.shards, steps, /*write_back=*/false, /*overlapped=*/false, 1);
  const MountEquivOutcome adopt_pipelined =
      run_mount_equivalence(param.shards, steps, /*write_back=*/false, /*overlapped=*/true, 8);
  expect_same_recovery(adopt_serial, adopt_pipelined);

  // Under write-back each shard streams phase 3 behind its own walk, into
  // the shared data disks: both shapes write the same images at mount,
  // and they are the images the adopting mount's drain reaches.
  const MountEquivOutcome wb_serial =
      run_mount_equivalence(param.shards, steps, /*write_back=*/true, /*overlapped=*/false, 1);
  const MountEquivOutcome wb_pipelined =
      run_mount_equivalence(param.shards, steps, /*write_back=*/true, /*overlapped=*/true, 8);
  expect_same_recovery(wb_serial, wb_pipelined);
  EXPECT_TRUE(wb_serial.mounted_images == wb_pipelined.mounted_images)
      << "write-back mounts wrote different images";
  EXPECT_TRUE(wb_serial.mounted_images == adopt_serial.drained_images)
      << "write-back mount and adopt-then-drain reached different images";
  EXPECT_EQ(wb_serial.found_per_shard, adopt_serial.found_per_shard);
}

INSTANTIATE_TEST_SUITE_P(ShardCountsAndCrashPoints, OverlappedMountEquivalence,
                         ::testing::Values(MountEquivCase{2, 90}, MountEquivCase{2, 400},
                                           MountEquivCase{4, 90}, MountEquivCase{4, 400}),
                         [](const ::testing::TestParamInfo<MountEquivCase>& info) {
                           return "shards" + std::to_string(info.param.shards) + "_steps" +
                                  std::to_string(info.param.crash_after_steps);
                         });

// ---------------------------------------------------------------------------
// Clean shutdown & epochs
// ---------------------------------------------------------------------------

TEST(ShardedLifecycle, CleanUnmountRemountsWithoutRecovery) {
  ShardedRig rig(2);
  rig.start();
  rig.write_sync(io::BlockAddr{rig.devices[0], 5}, make_pattern(2, 3));
  std::vector<std::uint32_t> epochs_before;
  for (std::size_t k = 0; k < rig.driver->shard_count(); ++k)
    epochs_before.push_back(rig.driver->shard(k).epoch());
  rig.driver->unmount();
  rig.driver.reset();
  rig.start();

  EXPECT_EQ(rig.driver->last_recovery().crashed_shards, 0u);
  EXPECT_EQ(rig.driver->last_recovery().records_found, 0u);
  // Every shard stamps its own next epoch.
  for (std::size_t k = 0; k < rig.driver->shard_count(); ++k)
    EXPECT_EQ(rig.driver->shard(k).epoch(), epochs_before[k] + 1);
  rig.verify_acked_durable();
  rig.expect_clean_audit(/*quiescent=*/true);
}

// ---------------------------------------------------------------------------
// Observability scoping
// ---------------------------------------------------------------------------

TEST(ShardedObs, PerShardMetricsAndRoutingGauges) {
  ShardedRig rig(2);
  std::vector<disk::DiskDevice*> raw;
  for (auto& d : rig.log_disks) raw.push_back(d.get());
  obs::Obs obs{rig.sim};
  rig.driver = std::make_unique<ShardedDriver>(rig.sim, raw, ShardedConfig{});
  for (auto& d : rig.data_disks) rig.devices.push_back(rig.driver->add_data_disk(*d));
  rig.driver->attach_obs(&obs);
  rig.driver->mount();

  for (int i = 0; i < 12; ++i)
    rig.write_sync(io::BlockAddr{rig.devices[0], static_cast<disk::Lba>(i) * 100},
                   make_pattern(1, 50 + i));
  rig.settle();

  const std::string json = obs.metrics.to_json();
  EXPECT_NE(json.find("shard.0.trail.sync_write_ns"), std::string::npos) << json;
  EXPECT_NE(json.find("shard.1.trail.sync_write_ns"), std::string::npos) << json;
  EXPECT_NE(json.find("shard.routing_imbalance_pct"), std::string::npos) << json;
  EXPECT_NE(json.find("shard.0.routed_sectors"), std::string::npos) << json;
  // Every routed sector is attributed to exactly one shard.
  EXPECT_EQ(rig.driver->routed_sectors(0) + rig.driver->routed_sectors(1), 12u);
  EXPECT_GE(rig.driver->routing_imbalance(), 0.0);
}

}  // namespace
}  // namespace trail::testing
