// Shared test fixture: a formatted log disk, data disks, and a mounted
// TrailDriver, with crash/remount helpers and a model of expected
// data-disk contents for durability checking.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace trail::testing {

inline std::vector<std::byte> make_pattern(std::uint32_t sectors, std::uint64_t seed) {
  std::vector<std::byte> v(static_cast<std::size_t>(sectors) * disk::kSectorSize);
  sim::Rng rng(seed);
  for (auto& b : v) b = std::byte(static_cast<std::uint8_t>(rng.next()));
  return v;
}

/// The most track scans a locate may spend per log disk: the resume
/// track, then the track before it or a binary search over the n usable
/// tracks, ⌈lg n⌉ + 2 in all (DESIGN.md §12).
inline std::uint32_t locate_scan_bound(const disk::Geometry& geometry) {
  const std::size_t usable =
      geometry.track_count() - core::LogDiskLayout(geometry).reserved_tracks().size();
  return static_cast<std::uint32_t>(std::bit_width(usable - 1)) + 2;
}

class TrailFixture : public ::testing::Test {
 protected:
  explicit TrailFixture(int data_disk_count = 2, disk::DiskProfile log_profile =
                                                     disk::small_test_disk(),
                        disk::DiskProfile data_profile = disk::small_test_disk())
      : log_profile_(std::move(log_profile)), data_profile_(std::move(data_profile)) {
    log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
    for (int i = 0; i < data_disk_count; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile_));
    core::format_log_disk(*log_disk);
  }

  /// Build + mount a driver over the existing devices.
  void start(core::TrailConfig config = {}) {
    driver = std::make_unique<core::TrailDriver>(sim, *log_disk, config);
    devices.clear();
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->mount();
  }

  /// Synchronous write through the driver; returns ack latency.
  sim::Duration write_sync(io::BlockAddr addr, std::span<const std::byte> data) {
    const auto count = static_cast<std::uint32_t>(data.size() / disk::kSectorSize);
    const sim::TimePoint t0 = sim.now();
    sim::TimePoint done = t0;
    bool fired = false;
    driver->submit_write(addr, count, data, [&] {
      fired = true;
      done = sim.now();
    });
    pump(fired);
    // Track expectations for durability checks.
    for (std::uint32_t i = 0; i < count; ++i) {
      auto& sector = expected_[{addr.device.index(), addr.lba + i}];
      sector.assign(data.begin() + static_cast<std::ptrdiff_t>(i) * disk::kSectorSize,
                    data.begin() + static_cast<std::ptrdiff_t>(i + 1) * disk::kSectorSize);
    }
    return done - t0;
  }

  std::vector<std::byte> read_sync(io::BlockAddr addr, std::uint32_t count) {
    std::vector<std::byte> out(static_cast<std::size_t>(count) * disk::kSectorSize);
    bool fired = false;
    driver->submit_read(addr, count, out, [&] { fired = true; });
    pump(fired);
    return out;
  }

  /// Crash everything, restart devices, re-create driver, mount (recover).
  void crash_and_remount(core::TrailConfig config = {}) {
    driver->crash();
    driver.reset();
    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    start(config);
  }

  /// Every acknowledged write must now be readable back via the driver.
  void verify_all_acknowledged_durable() {
    for (const auto& [key, bytes] : expected_) {
      const io::BlockAddr addr{io::DeviceId{static_cast<std::uint8_t>(key.first >> 8),
                                            static_cast<std::uint8_t>(key.first & 0xFF)},
                               key.second};
      const auto got = read_sync(addr, 1);
      ASSERT_EQ(std::memcmp(got.data(), bytes.data(), disk::kSectorSize), 0)
          << "lost acknowledged write at device " << key.first << " lba " << key.second;
    }
  }

  /// Verify directly against the data-disk platters (post write-back).
  void verify_expected_on_data_disks() {
    for (const auto& [key, bytes] : expected_) {
      const std::uint8_t minor = static_cast<std::uint8_t>(key.first & 0xFF);
      std::vector<std::byte> got(disk::kSectorSize);
      data_disks.at(minor)->store().read(key.second, 1, got);
      ASSERT_EQ(std::memcmp(got.data(), bytes.data(), disk::kSectorSize), 0)
          << "data disk " << int(minor) << " lba " << key.second << " stale";
    }
  }

  void settle() {
    bool done = false;
    driver->drain([&] { done = true; });
    pump(done);
  }

  /// Step the simulator until `flag` is set; fails the test on a stall.
  void pump(const bool& flag) {
    while (!flag) {
      if (!sim.step()) {
        ADD_FAILURE() << "simulation stalled";
        return;
      }
    }
  }

  sim::Simulator sim;
  disk::DiskProfile log_profile_;
  disk::DiskProfile data_profile_;
  std::unique_ptr<disk::DiskDevice> log_disk;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<core::TrailDriver> driver;
  std::vector<io::DeviceId> devices;
  std::map<std::pair<std::uint16_t, disk::Lba>, std::vector<std::byte>> expected_;
};

}  // namespace trail::testing
