// log_inspector: fsck.trail — builds a Trail deployment, runs a small
// mixed workload, crashes it, and then walks the raw log disk with the
// offline log verifier: sector census, per-epoch record counts,
// utilization histogram, chain verification, and a dump of the live
// records. A guided tour of the self-describing on-disk format of §3.2.
// The tour then reboots the deployment and exits non-zero unless recovery
// replays exactly the live chain the verifier counted.
//
// With `--fsck [report-path]` it instead runs the trail::audit log
// verifier over the same scenario: once on the crashed image (torn-tail
// warnings are legal, errors are not) and once after recovery + clean
// unmount (which must produce zero error findings). Exits non-zero if
// either pass finds an error — this is the CI corruption tripwire.
//
// With `--flightdump [path]` it runs the same crash + recovery scenario
// with observability attached and dumps the flight recorder: the bounded
// ring of per-request phase summaries (obs/req.hpp) that every request
// leaves behind, plus the kFlagRecovered entries recovery appends for
// each replayed record. This is the always-on black box a failed audit
// would print — here exposed directly for postmortem tooling and CI
// artifacts.

#include <cstdio>
#include <cstring>
#include <memory>

#include "audit/log_verifier.hpp"
#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/profile.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace trail;

namespace {

struct Deployment {
  sim::Simulator simulator;
  disk::DiskDevice log_disk{simulator, disk::small_test_disk()};
  disk::DiskDevice data_disk{simulator, disk::wd_caviar_10g()};
};

// Session 1: clean workload + unmount. Session 2: crash with pending
// records (data disk halted so write-back cannot drain them). With a
// non-null `obs`, every driver session runs with attribution attached so
// the flight recorder accumulates request summaries across the crash.
void run_workload(Deployment& dep, obs::Obs* obs = nullptr) {
  core::format_log_disk(dep.log_disk);
  {
    core::TrailDriver driver(dep.simulator, dep.log_disk);
    const io::DeviceId dev = driver.add_data_disk(dep.data_disk);
    if (obs != nullptr) driver.attach_obs(obs);
    driver.mount();
    sim::Rng rng(1);
    std::vector<std::byte> block(2 * disk::kSectorSize, std::byte{0x11});
    for (int i = 0; i < 10; ++i) {
      bool done = false;
      driver.submit_write({dev, static_cast<disk::Lba>(rng.uniform(0, 5000)) * 2}, 2, block,
                          [&] { done = true; });
      while (!done) dep.simulator.step();
    }
    driver.unmount();
  }
  auto driver = std::make_unique<core::TrailDriver>(dep.simulator, dep.log_disk);
  const io::DeviceId dev = driver->add_data_disk(dep.data_disk);
  if (obs != nullptr) driver->attach_obs(obs);
  driver->mount();
  dep.data_disk.crash_halt();
  {
    sim::Rng rng(2);
    std::vector<std::byte> block(3 * disk::kSectorSize, std::byte{0x22});
    for (int i = 0; i < 6; ++i) {
      bool done = false;
      driver->submit_write({dev, static_cast<disk::Lba>(rng.uniform(0, 5000)) * 4}, 3, block,
                           [&] { done = true; });
      while (!done) dep.simulator.step();
    }
  }
  driver->crash();
}

// Reboot the crashed deployment, let recovery replay the chain, then
// unmount cleanly so the image reaches its post-recovery steady state.
// Returns the number of records recovery replayed.
std::uint32_t reboot_and_recover(Deployment& dep, bool verbose, obs::Obs* obs = nullptr) {
  dep.log_disk.restart();
  dep.data_disk.restart();
  core::TrailDriver rebooted(dep.simulator, dep.log_disk);
  (void)rebooted.add_data_disk(dep.data_disk);
  if (obs != nullptr) rebooted.attach_obs(obs);
  rebooted.mount();
  if (verbose)
    std::printf("recovered %u records (%u track scans, %.1f ms locate)\n",
                rebooted.last_recovery().records_found,
                rebooted.last_recovery().tracks_scanned,
                rebooted.last_recovery().locate_time.ms());
  rebooted.unmount();
  return rebooted.last_recovery().records_found;
}

int run_fsck(const char* report_path) {
  Deployment dep;
  run_workload(dep);
  std::printf("*** fsck pass 1: crashed image (torn tail legal) ***\n");
  const audit::Report crashed = audit::verify_log(dep.log_disk);
  std::printf("%s", crashed.to_string().c_str());
  const bool crashed_ok = crashed.ok();

  std::printf("\n*** fsck pass 2: after recovery + clean unmount ***\n");
  reboot_and_recover(dep, /*verbose=*/false);
  const audit::Report recovered = audit::verify_log(dep.log_disk);
  std::printf("%s", recovered.to_string().c_str());
  const bool recovered_ok = recovered.ok();

  if (report_path != nullptr) {
    std::FILE* f = std::fopen(report_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "log_inspector: cannot write %s\n", report_path);
      return 2;
    }
    std::fprintf(f, "=== crashed image ===\n%s\n=== post-recovery image ===\n%s",
                 crashed.to_string().c_str(), recovered.to_string().c_str());
    std::fclose(f);
    std::printf("\nreport written to %s\n", report_path);
  }

  std::printf("\nfsck: crashed image %s, post-recovery image %s\n",
              crashed_ok ? "OK" : "HAS ERRORS", recovered_ok ? "OK" : "HAS ERRORS");
  return crashed_ok && recovered_ok ? 0 : 1;
}

// --flightdump: crash + recover with attribution on, then print the
// flight recorder's contents — acked requests carry their per-phase
// breakdown, recovery's replayed records are flagged R(ecovered).
int run_flightdump(const char* path) {
  Deployment dep;
  obs::Obs obs(dep.simulator);
  run_workload(dep, &obs);
  reboot_and_recover(dep, /*verbose=*/true, &obs);
  const std::string dump = obs.flight.dump();
  if (path != nullptr) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "log_inspector: cannot write %s\n", path);
      return 2;
    }
    std::fwrite(dump.data(), 1, dump.size(), f);
    std::fclose(f);
    std::printf("flight dump written to %s\n", path);
  } else {
    std::printf("%s", dump.c_str());
  }
  // The dump must retain entries: the workload acked requests and
  // recovery replayed records, all of which land in the ring.
  return obs.flight.size() > 0 ? 0 : 1;
}

int run_tour() {
  Deployment dep;
  run_workload(dep);
  std::printf("*** crashed with pending records; inspecting the raw log disk ***\n\n");

  audit::LogCensus census;
  audit::Report report = audit::verify_log(dep.log_disk, {}, &census);

  std::printf("formatted          : %s (%d/3 header replicas intact)\n",
              census.intact_header_replicas > 0 ? "yes" : "NO", census.intact_header_replicas);
  std::printf("disk header        : epoch=%u crash_var=%u resume_track=%u\n",
              census.disk_header.epoch, census.disk_header.crash_var,
              census.disk_header.resume_track);
  std::printf("sector census      : %llu written (%llu record headers, %llu payload, "
              "%llu other)\n",
              static_cast<unsigned long long>(census.sectors_written),
              static_cast<unsigned long long>(census.record_headers),
              static_cast<unsigned long long>(census.payload_sectors),
              static_cast<unsigned long long>(census.other_sectors));
  for (const auto& [epoch, count] : census.records_per_epoch)
    std::printf("  epoch %u: %llu records%s\n", epoch,
                static_cast<unsigned long long>(count),
                epoch == census.disk_header.epoch ? "   <- crashed epoch" : " (stale)");

  const audit::Check& chain = report.check("log.chain");
  std::printf("chain verification : %s",
              chain.ok() ? "OK" : chain.findings().front().message.c_str());
  std::printf(" (%u records on the live chain)\n", census.chain_length);

  // Utilization histogram over tracks that carry current-epoch data.
  int buckets[5] = {};
  int touched = 0;
  for (double u : census.track_utilization) {
    if (u <= 0) continue;
    ++touched;
    ++buckets[std::min(4, static_cast<int>(u * 5))];
  }
  std::printf("track utilization  : %d tracks carry crashed-epoch records\n", touched);
  const char* labels[5] = {"0-20%", "20-40%", "40-60%", "60-80%", "80-100%"};
  for (int b = 0; b < 5; ++b) {
    std::printf("  %-7s %3d |", labels[b], buckets[b]);
    for (int i = 0; i < buckets[b]; ++i) std::printf("#");
    std::printf("\n");
  }

  std::printf("\nlive records (youngest first):\n");
  for (auto it = census.records.rbegin(); it != census.records.rend(); ++it)
    if (it->header.epoch == census.disk_header.epoch)
      std::printf("%s", audit::describe(*it).c_str());

  // Boot a fresh driver: recovery replays the chain we just inspected.
  std::printf("\n*** rebooting: recovery should find the same chain ***\n");
  const std::uint32_t recovered = reboot_and_recover(dep, /*verbose=*/true);
  if (recovered == census.chain_length) return 0;
  std::printf("MISMATCH: the verifier's live chain holds %u records, recovery replayed %u\n",
              census.chain_length, recovered);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--fsck") == 0)
    return run_fsck(argc > 2 ? argv[2] : nullptr);
  if (argc > 1 && std::strcmp(argv[1], "--flightdump") == 0)
    return run_flightdump(argc > 2 ? argv[2] : nullptr);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--fsck [report-path] | --flightdump [path]]\n", argv[0]);
    return 2;
  }
  return run_tour();
}
