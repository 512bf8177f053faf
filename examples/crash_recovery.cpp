// Crash-recovery walkthrough: demonstrates the §3.3 machinery end to end.
//
// A write workload runs with the data disks artificially slowed, so a
// backlog of acknowledged-but-not-written-back records builds up on the
// log disk. Then the power "fails" mid-operation. On reboot the driver
// finds crash_var == 0, binary-searches the log for the youngest record,
// walks the prev_sect chain back to the log_head bound, and replays the
// pending records to the data disks — after which every acknowledged
// write is verified against a shadow copy kept by this example.
//
// Run with --no-writeback to see the Fig. 4(b) variant: recovery adopts
// the pending records and resumes immediately; the background write-back
// drains them afterwards.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace trail;

int main(int argc, char** argv) {
  const bool write_back = !(argc > 1 && std::string(argv[1]) == "--no-writeback");

  sim::Simulator simulator;
  disk::DiskDevice log_disk(simulator, disk::st41601n());
  // Deliberately sluggish data disk: write-back can't keep up, so records
  // pile up on the log disk.
  disk::DiskProfile slow = disk::wd_caviar_10g();
  slow.command_overhead = sim::millis_f(12.0);
  disk::DiskDevice data_disk(simulator, slow);
  core::format_log_disk(log_disk);

  auto driver = std::make_unique<core::TrailDriver>(simulator, log_disk);
  const io::DeviceId disk0 = driver->add_data_disk(data_disk);
  driver->mount();

  // Fire 60 acknowledged writes; remember exactly what was acked.
  std::map<disk::Lba, std::vector<std::byte>> acked;
  sim::Rng rng(7);
  int ack_count = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::byte> data(2 * disk::kSectorSize);
    for (auto& b : data) b = std::byte(static_cast<unsigned char>(rng.next()));
    const auto lba = static_cast<disk::Lba>(rng.uniform(0, 5000)) * 2;
    driver->submit_write(io::BlockAddr{disk0, lba}, 2, data, [&acked, &ack_count, lba, data] {
      acked[lba] = data;
      acked[lba + 1] = {data.begin() + disk::kSectorSize, data.end()};
      ++ack_count;
    });
    simulator.run_until(simulator.now() + sim::millis(3));
  }
  std::printf("acknowledged %d writes; %llu records still pending write-back\n", ack_count,
              static_cast<unsigned long long>(driver->buffers().pending_records()));

  // --- power failure ---
  driver->crash();
  driver.reset();
  std::printf("\n*** power failure at t = %s ***\n\n",
              sim::to_string(simulator.now()).c_str());
  log_disk.restart();
  data_disk.restart();

  // --- reboot ---
  core::TrailConfig config;
  config.recovery_write_back = write_back;
  auto rebooted = std::make_unique<core::TrailDriver>(simulator, log_disk, config);
  (void)rebooted->add_data_disk(data_disk);
  rebooted->mount();

  const core::RecoveryStats& rs = rebooted->last_recovery();
  std::printf("recovery (%s write-back):\n", write_back ? "with" : "WITHOUT");
  std::printf("  locate youngest record : %8.1f ms (%u track scans)\n", rs.locate_time.ms(),
              rs.tracks_scanned);
  std::printf("  rebuild pending set    : %8.1f ms (%u records, %u torn dropped)\n",
              rs.rebuild_time.ms(), rs.records_found, rs.records_dropped_torn);
  std::printf("  wait for write-back    : %8.1f ms (%llu sectors written back)\n",
              rs.writeback_time.ms(), static_cast<unsigned long long>(rs.sectors_written_back));

  if (!write_back) {
    std::printf("  (pending records adopted; background write-back will drain them)\n");
    bool drained = false;
    rebooted->drain([&] { drained = true; });
    while (!drained) simulator.step();
  }

  // Verify every acknowledged sector against the data disk.
  std::size_t verified = 0;
  disk::SectorBuf sector{};
  for (const auto& [lba, bytes] : acked) {
    data_disk.store().read(lba, 1, sector);
    if (std::memcmp(sector.data(), bytes.data(), disk::kSectorSize) != 0) {
      std::printf("LOST acknowledged write at LBA %llu!\n",
                  static_cast<unsigned long long>(lba));
      return 1;
    }
    ++verified;
  }
  std::printf("\nverified: all %zu acknowledged sectors intact after the crash\n", verified);
  rebooted->unmount();
  return 0;
}
