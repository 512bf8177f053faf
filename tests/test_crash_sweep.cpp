// The crash-point sweep: six chained writers make 2-sector writes to
// random LBAs below 1400 on two data disks. Power is cut after p1
// simulator steps; the stack remounts and reads every sector back. The
// writers submit their next writes and power is cut at once, before the
// new epoch puts a byte on the log: where that mount resumed on an
// unstamped track, the next locate takes the unstamped-resume-track
// branch (DESIGN.md §5, invariant 9), two scans, and every configuration
// must take it at least once (property unstamped_resume_mounts). The
// stack remounts and reads back, then writes for p2 more steps, and the
// power is cut, the stack remounts and reads back once more. Every read
// must satisfy audit::AckedOracle, and no crashed or mounted log image
// may break the track ring (core::RingOrder, fsck's log.ring_order).
//
// Each configuration is one driver shape (one TrailDriver, 2 or 4
// shards) under one recovery policy (write-back or adopt) over one log
// geometry: small_test_disk at the default config, or a 400-track log
// (2 surfaces x 200 cylinders x 24 sectors) with
// track_utilization_threshold = 0, which wraps its ring within the sweep.
//
// A mount that throws ends its case. The throws are tallied per message
// as test properties (run with --gtest_output=xml:<file> to read them).
// Only the chain walk's three messages are a known failure class (a walk
// that steps onto a torn tail's reused track); any other throw fails the
// sweep. So does a mount whose locate scans more than ⌈lg n⌉ + 2 tracks
// of any shard's n-track ring (property max_tracks_scanned).
//
// ctest runs every 10th p1 value. TRAIL_CRASH_SWEEP=full runs them all:
// p1 = 30..1490 step 11 and p2 in {150, 400, 900, 2000}, 532 cases of
// three cuts per configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audit/acked_oracle.hpp"
#include "audit/log_verifier.hpp"
#include "core/format_tool.hpp"
#include "core/sharded_driver.hpp"
#include "core/trail_driver.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using audit::AckedOracle;

constexpr int kWriters = 6;
constexpr disk::Lba kSpan = 1402;  // LBAs below 1400, 2-sector writes
constexpr int kP2[] = {150, 400, 900, 2000};
/// Steps from the writers' restart to the cut that ends the fresh epoch:
/// none, so no log write has started.
constexpr int kFreshEpochSteps = 0;
/// The chain walk's throws (core::ChainWalk verdicts in recovery.cpp).
const std::set<std::string> kChainWalkThrows = {
    "recovery: prev_sect chain reached an invalid record header",
    "recovery: record keys not decreasing along chain",
    "recovery: torn record below an intact one",
};

struct SweepConfig {
  std::size_t shards;  // 1: a plain TrailDriver; else a ShardedDriver
  bool write_back;
  bool ring400;  // the 400-track log at threshold 0, else small_test_disk
};

disk::DiskProfile ring400_disk() {
  disk::DiskProfile profile = disk::small_test_disk();
  profile.name = "ring-400";
  profile.geometry = disk::Geometry{2, {disk::Zone{200, 24}}, 0.2};
  profile.seek.cylinders = profile.geometry.cylinders();
  return profile;
}

/// Log disks, two data disks and the driver over them.
struct Stack {
  explicit Stack(const SweepConfig& cfg) : cfg(cfg) {
    for (std::size_t k = 0; k < cfg.shards; ++k) {
      logs.push_back(std::make_unique<disk::DiskDevice>(
          sim, cfg.ring400 ? ring400_disk() : disk::small_test_disk()));
      core::format_log_disk(*logs.back());
    }
    for (int i = 0; i < 2; ++i)
      data.push_back(std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk()));
  }

  io::BlockDriver& driver() {
    return single ? static_cast<io::BlockDriver&>(*single) : *sharded;
  }

  /// Build a driver over the devices and mount it (recovering after a cut).
  void mount() {
    core::TrailConfig tc;
    tc.recovery_write_back = cfg.write_back;
    if (cfg.ring400) tc.track_utilization_threshold = 0.0;
    devices.clear();
    if (cfg.shards == 1) {
      single = std::make_unique<core::TrailDriver>(sim, *logs[0], tc);
      for (auto& d : data) devices.push_back(single->add_data_disk(*d));
      single->mount();
    } else {
      core::ShardedConfig sc;
      sc.shard = tc;
      std::vector<disk::DiskDevice*> raw;
      for (auto& d : logs) raw.push_back(d.get());
      sharded = std::make_unique<core::ShardedDriver>(sim, raw, sc);
      for (auto& d : data) devices.push_back(sharded->add_data_disk(*d));
      sharded->mount();
    }
  }

  void cut_power() {
    if (single) single->crash();
    if (sharded) sharded->crash();
    single.reset();
    sharded.reset();
    for (auto& d : logs) d->restart();
    for (auto& d : data) d->restart();
  }

  /// The most tracks the last mount's locate scanned on one log disk.
  std::uint32_t max_tracks_scanned() const {
    if (single) return single->last_recovery().tracks_scanned;
    std::uint32_t most = 0;
    for (const core::RecoveryStats& shard : sharded->last_recovery().shards)
      most = std::max(most, shard.tracks_scanned);
    return most;
  }
  /// The fewest tracks the last mount's locate scanned on one log disk:
  /// 2 when some unit's resume track was unstamped.
  std::uint32_t min_tracks_scanned() const {
    if (single) return single->last_recovery().tracks_scanned;
    std::uint32_t fewest = ~std::uint32_t{0};
    for (const core::RecoveryStats& shard : sharded->last_recovery().shards)
      fewest = std::min(fewest, shard.tracks_scanned);
    return fewest;
  }

  /// fsck's log.ring_order errors over every log disk.
  std::uint64_t ring_errors() const {
    std::uint64_t errors = 0;
    for (const auto& d : logs) errors += audit::verify_log(*d).check("log.ring_order").errors();
    return errors;
  }

  SweepConfig cfg;
  sim::Simulator sim;
  std::vector<std::unique_ptr<disk::DiskDevice>> logs;
  std::vector<std::unique_ptr<disk::DiskDevice>> data;
  std::unique_ptr<core::TrailDriver> single;
  std::unique_ptr<core::ShardedDriver> sharded;
  std::vector<io::DeviceId> devices;
};

struct Tally {
  int cases = 0;
  int ring_broken = 0;  // cases with a log.ring_order error on any image
  int lossy = 0;        // cases that lost an acked sector or read one stale
  std::uint64_t lost = 0;
  std::uint64_t stale = 0;
  std::uint32_t max_scanned = 0;  // locate's track scans, most on one log disk
  int unstamped_resume_mounts = 0;  // locates that took the unstamped branch
  std::map<std::string, int> mount_throws;
  std::vector<std::string> failures;  // the first few failing points
};

struct Rejected {
  std::uint64_t lost = 0;
  std::uint64_t stale = 0;
};

/// Read every sector of the span back through the driver. With `judge`,
/// count each one the oracle rejects; then make it the post-mount value.
Rejected read_back(Stack& s, AckedOracle& oracle, bool judge) {
  Rejected rejected;
  for (const io::DeviceId dev : s.devices) {
    std::vector<std::byte> out(static_cast<std::size_t>(kSpan) * disk::kSectorSize);
    bool done = false;
    s.driver().submit_read(io::BlockAddr{dev, 0}, static_cast<std::uint32_t>(kSpan), out,
                           [&] { done = true; });
    while (!done)
      if (!s.sim.step()) throw std::runtime_error("read-back stalled");
    for (disk::Lba lba = 0; lba < kSpan; ++lba) {
      const auto got =
          std::span<const std::byte>(out).subspan(lba * disk::kSectorSize, disk::kSectorSize);
      const AckedOracle::Sector sector{dev.index(), lba};
      if (judge) {
        const AckedOracle::Verdict verdict = oracle.check(sector, got);
        rejected.lost += verdict == AckedOracle::Verdict::kLost;
        rejected.stale += verdict == AckedOracle::Verdict::kStale;
      }
      oracle.mounted(sector, got);
    }
  }
  return rejected;
}

void run_case(const SweepConfig& cfg, int p1, int p2, Tally& tally) {
  ++tally.cases;
  Stack s(cfg);
  AckedOracle oracle;
  s.mount();
  (void)read_back(s, oracle, /*judge=*/false);  // blank disks

  sim::Rng rng(static_cast<std::uint64_t>(p1) * 131 + static_cast<std::uint64_t>(p2));
  std::uint64_t seed = 0;
  // The chains outlive the driver's callbacks (every ack dies at a cut),
  // so they capture raw pointers.
  std::vector<std::unique_ptr<std::function<void()>>> chains;
  for (int w = 0; w < kWriters; ++w) {
    chains.push_back(std::make_unique<std::function<void()>>());
    auto* chain = chains.back().get();
    *chain = [&s, &rng, &oracle, &seed, chain] {
      const io::DeviceId dev = s.devices[static_cast<std::size_t>(rng.uniform(0, 1))];
      const auto lba = static_cast<disk::Lba>(rng.uniform(0, 1400));
      auto data = std::make_shared<std::vector<std::byte>>(make_pattern(2, ++seed));
      const std::size_t ticket = oracle.submitted(dev.index(), lba, *data);
      s.driver().submit_write(io::BlockAddr{dev, lba}, 2, *data,
                              [&oracle, ticket, data, chain] {
                                oracle.acked(ticket);
                                (*chain)();
                              });
    };
  }

  std::string failure;
  bool ring_broken = false;
  Rejected rejected;
  const auto check_ring = [&](const std::string& image) {
    if (s.ring_errors() == 0) return;
    ring_broken = true;
    failure += " ring broken on the " + image + " image;";
  };
  for (const int steps : {p1, kFreshEpochSteps, p2}) {
    for (auto& chain : chains) (*chain)();
    for (int i = 0; i < steps; ++i)
      if (!s.sim.step()) break;  // every writer parked on a full log
    s.cut_power();
    check_ring("crashed (" + std::to_string(steps) + " steps)");
    try {
      s.mount();
    } catch (const std::exception& e) {
      ++tally.mount_throws[e.what()];
      break;
    }
    check_ring("mounted");
    tally.max_scanned = std::max(tally.max_scanned, s.max_tracks_scanned());
    tally.unstamped_resume_mounts += s.min_tracks_scanned() == 2;
    const Rejected cut = read_back(s, oracle, /*judge=*/true);
    if (cut.lost + cut.stale > 0)
      failure += " " + std::to_string(cut.lost) + " lost and " + std::to_string(cut.stale) +
                 " stale acked sectors after " + std::to_string(steps) + " steps;";
    rejected.lost += cut.lost;
    rejected.stale += cut.stale;
  }
  tally.ring_broken += ring_broken;
  tally.lossy += rejected.lost + rejected.stale > 0;
  tally.lost += rejected.lost;
  tally.stale += rejected.stale;
  if (!failure.empty() && tally.failures.size() < 8)
    tally.failures.push_back("p1=" + std::to_string(p1) + " p2=" + std::to_string(p2) + ":" +
                             failure);
}

std::string property_key(const std::string& message) {
  std::string key = "mount_throw.";
  for (const char c : message)
    key += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  return key;
}

class CrashSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(CrashSweep, AckedSectorsSurviveTwoCutsAndTheRingStaysOrdered) {
  const SweepConfig cfg = GetParam();
  const char* mode = std::getenv("TRAIL_CRASH_SWEEP");
  const int stride = mode != nullptr && std::string(mode) == "full" ? 1 : 10;
  Tally tally;
  for (int k = 0; 30 + 11 * k <= 1490; k += stride)
    for (const int p2 : kP2) run_case(cfg, 30 + 11 * k, p2, tally);

  RecordProperty("cases", tally.cases);
  RecordProperty("ring_broken", tally.ring_broken);
  RecordProperty("lossy_cases", tally.lossy);
  RecordProperty("lost_sectors", static_cast<int>(tally.lost));
  RecordProperty("stale_sectors", static_cast<int>(tally.stale));
  RecordProperty("max_tracks_scanned", static_cast<int>(tally.max_scanned));
  RecordProperty("unstamped_resume_mounts", tally.unstamped_resume_mounts);
  for (const auto& [message, count] : tally.mount_throws)
    RecordProperty(property_key(message), count);
  std::string failures;
  for (const std::string& f : tally.failures) failures += "\n  " + f;
  for (const auto& [message, count] : tally.mount_throws)
    EXPECT_TRUE(kChainWalkThrows.contains(message))
        << count << " mounts threw \"" << message << "\"";
  EXPECT_EQ(tally.ring_broken, 0) << "cases whose log images break the track ring" << failures;
  EXPECT_GT(tally.unstamped_resume_mounts, 0)
      << "no mount located from an unstamped resume track";
  EXPECT_EQ(tally.lost, 0u) << "acked sectors lost" << failures;
  EXPECT_EQ(tally.stale, 0u) << "acked sectors read back stale" << failures;
  EXPECT_LE(tally.max_scanned,
            locate_scan_bound((cfg.ring400 ? ring400_disk() : disk::small_test_disk()).geometry));
}

INSTANTIATE_TEST_SUITE_P(
    DriversPoliciesLogs, CrashSweep,
    ::testing::Values(SweepConfig{1, true, false}, SweepConfig{1, false, false},
                      SweepConfig{2, true, false}, SweepConfig{2, false, false},
                      SweepConfig{4, true, false}, SweepConfig{4, false, false},
                      SweepConfig{1, true, true}, SweepConfig{1, false, true},
                      SweepConfig{2, true, true}, SweepConfig{2, false, true},
                      SweepConfig{4, true, true}, SweepConfig{4, false, true}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return (info.param.shards == 1 ? std::string("driver")
                                     : "shards" + std::to_string(info.param.shards)) +
             (info.param.write_back ? "_writeback" : "_adopt") +
             (info.param.ring400 ? "_ring400" : "_small");
    });

}  // namespace
}  // namespace trail::testing
