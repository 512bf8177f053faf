// Figure 4: crash-recovery overhead.
//
//  (a) Breakdown into locate / rebuild / write-back as the number of
//      pending write records Q varies 32..256. The paper's locate phase
//      costs ~450 ms: ~20 binary-search track scans of the 35,717-track
//      log disk at 5400 RPM. Our write-back streams behind the rebuild
//      walk, so the table shows both the mount's wait for it after the
//      walk and the data disks' service time for it.
//  (b) Recovery with vs without the write-back phase: in the paper,
//      skipping it (the records stay live and drain in the background) is
//      >3.5x faster at Q = 256 because write-back does random data-disk
//      I/O after the rebuild.
//
// Setup mirrors the paper's steady state: the log ring is first stamped
// by a long write workload (so the binary search sees a wrapped log),
// then the data disks are halted so exactly Q acknowledged records are
// pending at the crash.

#include <algorithm>
#include <fstream>
#include <tuple>

#include "harness.hpp"

namespace trail::bench {
namespace {

struct RecoveryRun {
  core::RecoveryStats stats;
  double total_ms;
  double mount_ms;  // full mount virtual time (headers + recovery + stamping)
  /// Data-disk service time during the mount, busiest disk: phase 3's
  /// writes, most of which overlap the walk (stats.writeback_time is only
  /// the mount's wait for them after it).
  double writeback_service_ms;
};

RecoveryRun run_recovery(std::uint32_t pending_records, bool write_back,
                         bool sequential_locate, std::uint32_t prefill_writes,
                         std::uint32_t pipeline_depth = 8, bool packed_tracks = false) {
  // Default (paper Fig. 4): one record per track (threshold 0, no
  // batching) — every prefill write stamps one track of the ring.
  // packed_tracks instead keeps the production utilization threshold, so
  // tracks fill with many records before the allocator moves on — the
  // realistic steady state the streaming rebuild is built for.
  core::TrailConfig config;
  if (!packed_tracks) config.track_utilization_threshold = 0.0;
  config.max_requests_per_physical = 1;
  TrailStack stack(2, config);
  std::vector<std::byte> sector(disk::kSectorSize, std::byte{0x42});
  sim::Rng rng(1234);

  // Phase A: stamp a long arc of the ring (records committed + freed, so
  // only their stale images remain — exactly the disk state after hours
  // of operation).
  {
    int acked = 0;
    for (std::uint32_t i = 0; i < prefill_writes; ++i) {
      const auto dev = stack.devices[i % stack.devices.size()];
      stack.driver->submit_write(
          io::BlockAddr{dev, static_cast<disk::Lba>(rng.uniform(0, 1 << 20))}, 1, sector,
          [&acked] { ++acked; });
    }
    while (acked < static_cast<int>(prefill_writes)) {
      if (!stack.sim.step()) throw std::runtime_error("fig4: prefill stalled");
    }
    bool drained = false;
    stack.driver->drain([&] { drained = true; });
    while (!drained) {
      if (!stack.sim.step()) throw std::runtime_error("fig4: drain stalled");
    }
  }

  // Phase B: halt the data disks and accumulate exactly Q pending records.
  for (auto& d : stack.data_disks) d->crash_halt();
  {
    int acked = 0;
    for (std::uint32_t i = 0; i < pending_records; ++i) {
      const auto dev = stack.devices[i % stack.devices.size()];
      stack.driver->submit_write(
          io::BlockAddr{dev, static_cast<disk::Lba>(rng.uniform(0, 1 << 20))}, 1, sector,
          [&acked] { ++acked; });
      // One record per physical write: wait for the ack before the next.
      while (acked < static_cast<int>(i) + 1) {
        if (!stack.sim.step()) throw std::runtime_error("fig4: pending stalled");
      }
    }
  }

  // Phase C: power failure, reboot, recover.
  stack.driver->crash();
  stack.log_disk->restart();
  for (auto& d : stack.data_disks) d->restart();

  core::TrailConfig recover_cfg;
  recover_cfg.recovery_write_back = write_back;
  recover_cfg.recovery_sequential_locate = sequential_locate;
  recover_cfg.recovery_pipeline_depth = pipeline_depth;
  auto driver2 = std::make_unique<core::TrailDriver>(stack.sim, *stack.log_disk, recover_cfg);
  for (auto& d : stack.data_disks) (void)driver2->add_data_disk(*d);
  std::vector<sim::Duration> busy0;
  for (auto& d : stack.data_disks) busy0.push_back(d->stats().busy);
  const sim::TimePoint t0 = stack.sim.now();
  driver2->mount();
  RecoveryRun run;
  run.stats = driver2->last_recovery();
  run.total_ms =
      (run.stats.locate_time + run.stats.rebuild_time + run.stats.writeback_time).ms();
  run.mount_ms = (stack.sim.now() - t0).ms();
  run.writeback_service_ms = 0;
  for (std::size_t i = 0; i < busy0.size(); ++i)
    run.writeback_service_ms =
        std::max(run.writeback_service_ms, (stack.data_disks[i]->stats().busy - busy0[i]).ms());
  return run;
}

struct ShardedMountRun {
  core::ShardedRecoveryStats stats;
  double mount_ms;  // full array mount virtual time
};

/// Crash a loaded N-shard array, then measure the remount's virtual time.
/// Adopting, the cost under test is the per-shard locate + rebuild on the
/// N independent log disks; under write-back each shard also streams
/// phase 3 behind its own walk into the shared data disks.
ShardedMountRun run_sharded_recovery(std::size_t shards, std::uint32_t pending_records,
                                     std::uint32_t prefill_writes, bool write_back,
                                     bool overlapped, std::uint32_t pipeline_depth) {
  core::ShardedConfig config;
  config.shard.track_utilization_threshold = 0.0;
  config.shard.max_requests_per_physical = 1;
  ShardedStack stack(shards, 2, config);
  std::vector<std::byte> sector(disk::kSectorSize, std::byte{0x42});
  sim::Rng rng(1234);

  {
    int acked = 0;
    for (std::uint32_t i = 0; i < prefill_writes; ++i) {
      const auto dev = stack.devices[i % stack.devices.size()];
      stack.driver->submit_write(
          io::BlockAddr{dev, static_cast<disk::Lba>(rng.uniform(0, 1 << 20))}, 1, sector,
          [&acked] { ++acked; });
    }
    while (acked < static_cast<int>(prefill_writes)) {
      if (!stack.sim.step()) throw std::runtime_error("fig4: sharded prefill stalled");
    }
    bool drained = false;
    stack.driver->drain([&] { drained = true; });
    while (!drained) {
      if (!stack.sim.step()) throw std::runtime_error("fig4: sharded drain stalled");
    }
  }

  for (auto& d : stack.data_disks) d->crash_halt();
  {
    int acked = 0;
    for (std::uint32_t i = 0; i < pending_records; ++i) {
      const auto dev = stack.devices[i % stack.devices.size()];
      stack.driver->submit_write(
          io::BlockAddr{dev, static_cast<disk::Lba>(rng.uniform(0, 1 << 20))}, 1, sector,
          [&acked] { ++acked; });
      while (acked < static_cast<int>(i) + 1) {
        if (!stack.sim.step()) throw std::runtime_error("fig4: sharded pending stalled");
      }
    }
  }

  stack.driver->crash();
  for (auto& d : stack.log_disks) d->restart();
  for (auto& d : stack.data_disks) d->restart();

  core::ShardedConfig recover_cfg;
  recover_cfg.shard.recovery_write_back = write_back;
  recover_cfg.shard.recovery_pipeline_depth = pipeline_depth;
  recover_cfg.overlapped_mount = overlapped;
  std::vector<disk::DiskDevice*> raw;
  for (auto& d : stack.log_disks) raw.push_back(d.get());
  auto driver2 = std::make_unique<core::ShardedDriver>(stack.sim, raw, recover_cfg);
  for (auto& d : stack.data_disks) (void)driver2->add_data_disk(*d);
  const sim::TimePoint t0 = stack.sim.now();
  driver2->mount();
  ShardedMountRun run;
  run.mount_ms = (stack.sim.now() - t0).ms();
  run.stats = driver2->last_recovery();
  return run;
}

}  // namespace
}  // namespace trail::bench

int main(int argc, char** argv) {
  using namespace trail::bench;
  namespace sim = trail::sim;

  // Stamp most of a (paper-geometry) ring: the ST41601N has 35,714 usable
  // tracks; a full stamp takes a while, so scale the ring coverage via env.
  // Stamp most of the 35,714 usable tracks so the binary search sees the
  // paper's wrapped-log steady state (override for quick runs).
  std::uint32_t prefill = 30'000;
  if (const char* env = std::getenv("TRAIL_FIG4_PREFILL"))
    prefill = static_cast<std::uint32_t>(std::atoi(env));
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  std::string json = "{\n  \"fig4a\": [";

  print_heading("Figure 4(a): recovery-time breakdown vs pending records Q (prefill " +
                std::to_string(prefill) + " tracks)");
  sim::TablePrinter table_a({"Q", "locate (ms)", "tracks scanned", "rebuild (ms)",
                             "write-back wait (ms)", "write-back service (ms)", "total (ms)"});
  bool first_row = true;
  for (const std::uint32_t q : {32u, 64u, 128u, 256u}) {
    const RecoveryRun run = run_recovery(q, /*write_back=*/true, false, prefill);
    table_a.add_row({sim::TablePrinter::fmt_int(q),
                     sim::TablePrinter::fmt(run.stats.locate_time.ms(), 0),
                     sim::TablePrinter::fmt_int(run.stats.tracks_scanned),
                     sim::TablePrinter::fmt(run.stats.rebuild_time.ms(), 0),
                     sim::TablePrinter::fmt(run.stats.writeback_time.ms(), 0),
                     sim::TablePrinter::fmt(run.writeback_service_ms, 0),
                     sim::TablePrinter::fmt(run.total_ms, 0)});
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s\n    {\"q\": %u, \"locate_ms\": %.3f, \"tracks_scanned\": %u, "
                  "\"rebuild_ms\": %.3f, \"writeback_ms\": %.3f, "
                  "\"writeback_service_ms\": %.3f, \"total_ms\": %.3f}",
                  first_row ? "" : ",", q, run.stats.locate_time.ms(), run.stats.tracks_scanned,
                  run.stats.rebuild_time.ms(), run.stats.writeback_time.ms(),
                  run.writeback_service_ms, run.total_ms);
    json += row;
    first_row = false;
  }
  table_a.print();
  std::printf("(paper: locate ~450 ms via ~20 track scans of 35,717 tracks; write-back "
              "wait is the mount's wait for phase 3 after the walk, service the busiest "
              "data disk's time, most of it under the walk)\n");
  json += "\n  ],\n";

  print_heading("Recovery pipeline: depth 1 (serial) vs depth 8, packed tracks (Q = 256)");
  {
    const RecoveryRun d1 =
        run_recovery(256, /*write_back=*/true, false, prefill, 1, /*packed_tracks=*/true);
    const RecoveryRun d8 =
        run_recovery(256, /*write_back=*/true, false, prefill, 8, /*packed_tracks=*/true);
    sim::TablePrinter t({"depth", "locate (ms)", "rebuild (ms)", "write-back wait (ms)",
                         "mount (ms)"});
    t.add_row({"1", sim::TablePrinter::fmt(d1.stats.locate_time.ms(), 0),
               sim::TablePrinter::fmt(d1.stats.rebuild_time.ms(), 0),
               sim::TablePrinter::fmt(d1.stats.writeback_time.ms(), 0),
               sim::TablePrinter::fmt(d1.mount_ms, 0)});
    t.add_row({"8", sim::TablePrinter::fmt(d8.stats.locate_time.ms(), 0),
               sim::TablePrinter::fmt(d8.stats.rebuild_time.ms(), 0),
               sim::TablePrinter::fmt(d8.stats.writeback_time.ms(), 0),
               sim::TablePrinter::fmt(d8.mount_ms, 0)});
    t.print();
    const double rebuild_speedup = d1.stats.rebuild_time.ms() / d8.stats.rebuild_time.ms();
    const double mount_speedup = d1.mount_ms / d8.mount_ms;
    std::printf("rebuild speedup %.1fx, full-mount speedup %.1fx (one streamed track read "
                "covers every record on the track; serial pays a rotational wait per record)\n",
                rebuild_speedup, mount_speedup);
    char blk[512];
    std::snprintf(blk, sizeof(blk),
                  "  \"pipeline\": {\"q\": 256, \"depth1_rebuild_ms\": %.3f, "
                  "\"depth8_rebuild_ms\": %.3f, \"rebuild_speedup\": %.3f, "
                  "\"depth1_mount_ms\": %.3f, \"depth8_mount_ms\": %.3f, "
                  "\"mount_speedup\": %.3f},\n",
                  d1.stats.rebuild_time.ms(), d8.stats.rebuild_time.ms(), rebuild_speedup,
                  d1.mount_ms, d8.mount_ms, mount_speedup);
    json += blk;
  }

  print_heading("4-shard mount: sequential vs overlapped shard recovery (Q = 256)");
  {
    const std::uint32_t shard_prefill = prefill / 2;  // per-array; extents spread it
    const ShardedMountRun seq =
        run_sharded_recovery(4, 256, shard_prefill, /*write_back=*/false, /*overlapped=*/false, 8);
    const ShardedMountRun ovl =
        run_sharded_recovery(4, 256, shard_prefill, /*write_back=*/false, /*overlapped=*/true, 8);
    const ShardedMountRun wb_seq =
        run_sharded_recovery(4, 256, shard_prefill, /*write_back=*/true, /*overlapped=*/false, 8);
    const ShardedMountRun wb_ovl =
        run_sharded_recovery(4, 256, shard_prefill, /*write_back=*/true, /*overlapped=*/true, 8);
    sim::TablePrinter t({"mount", "policy", "virtual time (ms)", "records"});
    for (const auto& [label, policy, run] :
         {std::tuple{"sequential shards", "adopt", &seq},
          std::tuple{"overlapped shards", "adopt", &ovl},
          std::tuple{"sequential shards", "write-back", &wb_seq},
          std::tuple{"overlapped shards", "write-back", &wb_ovl}})
      t.add_row({label, policy, sim::TablePrinter::fmt(run->mount_ms, 0),
                 sim::TablePrinter::fmt_int(run->stats.records_found)});
    t.print();
    const double speedup = seq.mount_ms / ovl.mount_ms;
    const double wb_speedup = wb_seq.mount_ms / wb_ovl.mount_ms;
    std::printf("overlap speedup %.1fx adopting, %.1fx writing back, over %zu crashed shards "
                "(independent log spindles; ideal = shard count); overlapped write-back "
                "mount %.2fx the adopting one\n",
                speedup, wb_speedup, static_cast<std::size_t>(4), wb_ovl.mount_ms / ovl.mount_ms);
    char blk[384];
    std::snprintf(blk, sizeof(blk),
                  "  \"sharded_mount\": {\"shards\": 4, \"q\": 256, \"sequential_ms\": %.3f, "
                  "\"overlapped_ms\": %.3f, \"speedup\": %.3f, "
                  "\"writeback_sequential_ms\": %.3f, \"writeback_overlapped_ms\": %.3f, "
                  "\"writeback_speedup\": %.3f}\n}\n",
                  seq.mount_ms, ovl.mount_ms, speedup, wb_seq.mount_ms, wb_ovl.mount_ms,
                  wb_speedup);
    json += blk;
  }
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    out << json;
  }

  print_heading("Figure 4(b): recovery with vs without the write-back phase");
  sim::TablePrinter table_b(
      {"Q", "with write-back (ms)", "without (ms)", "slowdown", "paper"});
  for (const std::uint32_t q : {32u, 64u, 128u, 256u}) {
    const RecoveryRun with_wb = run_recovery(q, true, false, prefill);
    const RecoveryRun no_wb = run_recovery(q, false, false, prefill);
    table_b.add_row({sim::TablePrinter::fmt_int(q),
                     sim::TablePrinter::fmt(with_wb.total_ms, 0),
                     sim::TablePrinter::fmt(no_wb.total_ms, 0),
                     sim::TablePrinter::fmt(with_wb.total_ms / no_wb.total_ms, 1) + "x",
                     q == 256 ? ">3.5x" : "-"});
  }
  table_b.print();

  print_heading("Ablation: binary-search vs sequential locate (Q = 64)");
  {
    const RecoveryRun bin = run_recovery(64, false, false, prefill);
    const RecoveryRun seq = run_recovery(64, false, true, prefill);
    sim::TablePrinter t({"locate", "time (ms)", "tracks scanned"});
    t.add_row({"binary search", sim::TablePrinter::fmt(bin.stats.locate_time.ms(), 0),
               sim::TablePrinter::fmt_int(bin.stats.tracks_scanned)});
    t.add_row({"sequential scan", sim::TablePrinter::fmt(seq.stats.locate_time.ms(), 0),
               sim::TablePrinter::fmt_int(seq.stats.tracks_scanned)});
    t.print();
  }
  return 0;
}
