#include <array>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    // The generic names every workload reports (BENCHMARK.json end_to_end).
    {"virt_mean_ms", "ms"},
    {"virt_tail_ms", "ms"},
    {"virt_ops_per_s", "1/s"},
    {"host_ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    // The same figures under their workload-specific names.
    {"write_mean_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"write_wps", "1/s"},
    {"host_writes_per_s", "1/s"},
    {"txn_mean_ms", "ms"},
    {"txn_p50_ms", "ms"},
    {"txn_p99_ms", "ms"},
    {"tpmc", "1/min"},
    {"host_txns_per_s", "1/s"},
    {"mount_ms", "ms"},
    {"mount_host_ms", "ms"},
    {"fail_frac", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"disk.log.busy_frac", "ratio"},
    {"disk.log.overhead_ms_per_cmd", "ms"},
    {"disk.log.seek_ms_per_cmd", "ms"},
    {"disk.log.rotation_ms_per_cmd", "ms"},
    {"disk.log.transfer_ms_per_cmd", "ms"},
    {"disk.data.busy_frac", "ratio"},
    {"disk.data.seek_ms_per_cmd", "ms"},
    {"disk.data.rotation_ms_per_cmd", "ms"},
    {"disk.store_bytes_per_written_byte", "ratio"},
    {"wb.ranges_per_cmd", "count"},
    {"wb.skipped_frac", "ratio"},
    {"wb.backlog_max", "count"},
    {"wb.drain_s", "s"},
    {"io.service_ms.p50", "ms"},
    {"io.service_ms.p99", "ms"},
    {"trail.batch_mean", "count"},
    {"trail.track_switches_per_kwrite", "count"},
    {"trail.idle_repositions", "count"},
    {"trail.log_full_stalls", "count"},
    {"trail.track_util_mean", "ratio"},
    {"trail.pinned_mb_max", "MiB"},
    {"trail.read_buffer_hit_frac", "ratio"},
    {"trail.submit_host_ns", "ns"},
    {"trail.physical_write_ms.p50", "ms"},
    {"req.phase.route_ms.p50", "ms"},
    {"req.phase.route_ms.p99", "ms"},
    {"req.phase.queue_ms.p50", "ms"},
    {"req.phase.queue_ms.p99", "ms"},
    {"req.phase.position_ms.p50", "ms"},
    {"req.phase.position_ms.p99", "ms"},
    {"req.phase.transfer_ms.p50", "ms"},
    {"req.phase.transfer_ms.p99", "ms"},
    {"req.phase.watermark_gate_ms.p50", "ms"},
    {"req.phase.watermark_gate_ms.p99", "ms"},
    {"recovery.locate_ms", "ms"},
    {"recovery.rebuild_ms", "ms"},
    {"recovery.writeback_ms", "ms"},
    {"recovery.tracks_scanned", "count"},
    {"recovery.probe_overshoot", "count"},
    {"recovery.records_found", "count"},
    {"recovery.stream_commands", "count"},
    {"recovery.stream_sectors", "count"},
    {"recovery.sectors_written_back", "count"},
    {"recovery.host_ms", "ms"},
    {"block.read_ms.p50", "ms"},
    {"block.read_ms.p99", "ms"},
    {"block.write_ms.p50", "ms"},
    {"block.write_ms.p99", "ms"},
    {"block.reads_per_txn", "count"},
    {"block.writes_per_txn", "count"},
    {"db.pool.hit_frac", "ratio"},
    {"db.pool.evictions_per_txn", "count"},
    {"db.wal.flushes_per_txn", "count"},
    {"db.wal.flush_io_ms_mean", "ms"},
    {"db.wal.commit_wait_ms_per_txn", "ms"},
    {"db.lock.wait_ms_per_txn", "ms"},
    {"db.lock.timeouts", "count"},
    {"tpcc.new_order_p50_ms", "ms"},
    {"tpcc.new_order_p99_ms", "ms"},
    {"setup.format_host_s", "s"},
    {"setup.calibrate_host_s", "s"},
    {"setup.mkfs_host_s", "s"},
    {"setup.populate_host_s", "s"},
    {"setup.prefill_host_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "ratio"},
};

void add_disk_metrics(Sample& s, const std::string& prefix,
                      const std::vector<const disk::DiskDevice*>& disks, sim::Duration elapsed) {
  disk::DiskStats sum;
  for (const auto* d : disks) {
    const disk::DiskStats& ds = d->stats();
    sum.reads += ds.reads;
    sum.writes += ds.writes;
    sum.busy += ds.busy;
    sum.overhead += ds.overhead;
    sum.seek += ds.seek;
    sum.rotation += ds.rotation;
    sum.transfer += ds.transfer;
    const sim::Duration parts = ds.overhead + ds.seek + ds.rotation + ds.transfer;
    if (parts != ds.busy)
      s.errors.push_back(prefix + ": overhead+seek+rotation+transfer " +
                         std::to_string(parts.ns()) + " ns != busy " +
                         std::to_string(ds.busy.ns()) + " ns");
  }
  s.checks.push_back(prefix + ": overhead+seek+rotation+transfer == busy");
  const auto cmds = static_cast<double>(sum.reads + sum.writes);
  s.layer[prefix + ".busy_frac"] =
      ratio(sum.busy.sec(), elapsed.sec() * static_cast<double>(disks.size()));
  s.layer[prefix + ".overhead_ms_per_cmd"] = ratio(sum.overhead.ms(), cmds);
  s.layer[prefix + ".seek_ms_per_cmd"] = ratio(sum.seek.ms(), cmds);
  s.layer[prefix + ".rotation_ms_per_cmd"] = ratio(sum.rotation.ms(), cmds);
  s.layer[prefix + ".transfer_ms_per_cmd"] = ratio(sum.transfer.ms(), cmds);
}

void add_stack_metrics(Sample& s, Stack& st, sim::Duration elapsed) {
  add_disk_metrics(s, "disk.log", {st.log_disk.get()}, elapsed);
  std::vector<const disk::DiskDevice*> data;
  for (const auto& d : st.data_disks) data.push_back(d.get());
  add_disk_metrics(s, "disk.data", data, elapsed);

  double allocated = 0.0;
  double written = 0.0;
  for (const auto* d : data) {
    allocated += static_cast<double>(d->store().allocated_bytes());
    written += static_cast<double>(d->store().written_sector_count() * disk::kSectorSize);
  }
  allocated += static_cast<double>(st.log_disk->store().allocated_bytes());
  written += static_cast<double>(st.log_disk->store().written_sector_count() * disk::kSectorSize);
  s.layer["disk.store_bytes_per_written_byte"] = ratio(allocated, written);

  const core::TrailStats& ts = st.driver->stats();
  s.layer["wb.ranges_per_cmd"] = ratio(static_cast<double>(ts.writebacks_dispatched),
                                       static_cast<double>(ts.writeback_commands));
  s.layer["wb.skipped_frac"] =
      ratio(static_cast<double>(ts.writebacks_skipped), static_cast<double>(ts.writebacks));
  s.layer["trail.batch_mean"] = ts.mean_batch_size();
  s.layer["trail.track_switches_per_kwrite"] = ratio(
      1000.0 * static_cast<double>(ts.track_switches), static_cast<double>(ts.requests_logged));
  s.layer["trail.idle_repositions"] = static_cast<double>(ts.idle_repositions);
  s.layer["trail.log_full_stalls"] = static_cast<double>(ts.log_full_stalls);
  s.layer["trail.track_util_mean"] = st.driver->allocator().mean_finished_track_utilization();
  s.layer["trail.pinned_mb_max"] =
      static_cast<double>(st.driver->buffers().pinned_bytes_high_water()) / (1024.0 * 1024.0);
  s.layer["trail.read_buffer_hit_frac"] =
      ratio(static_cast<double>(ts.read_buffer_hits), static_cast<double>(ts.reads));

  obs::MetricsRegistry& m = st.obs.metrics;
  s.layer["trail.physical_write_ms.p50"] =
      m.histogram("trail.physical_write_ns").percentile_ms(50);
  double service_p50 = 0.0;
  double service_p99 = 0.0;
  for (std::size_t i = 0; i < st.data_disks.size(); ++i) {
    const obs::Histogram& h = m.histogram("io.service_ns.data" + std::to_string(i));
    service_p50 = std::max(service_p50, h.percentile_ms(50));
    service_p99 = std::max(service_p99, h.percentile_ms(99));
  }
  s.layer["io.service_ms.p50"] = service_p50;
  s.layer["io.service_ms.p99"] = service_p99;

  // obs::ReqTracker partitions each write's life into phases; their sums
  // must equal the end-to-end total exactly.
  std::int64_t phase_sum = 0;
  for (const char* phase : {"route", "queue", "position", "transfer", "watermark_gate"}) {
    const obs::Histogram& h = m.histogram(std::string("req.phase.") + phase);
    phase_sum += h.sum();
    s.layer[std::string("req.phase.") + phase + "_ms.p50"] = h.percentile_ms(50);
    s.layer[std::string("req.phase.") + phase + "_ms.p99"] = h.percentile_ms(99);
  }
  const std::int64_t total = m.histogram("req.total_ns").sum();
  s.checks.push_back("req.phase.* sums == req.total_ns");
  if (phase_sum != total)
    s.errors.push_back("req.phase.* sum " + std::to_string(phase_sum) +
                       " ns != req.total_ns " + std::to_string(total) + " ns");
}

void fill_payload(std::span<std::byte> sector, std::uint64_t write_id, std::uint32_t index) {
  // splitmix64 stream keyed by (write, sector): distinct for every write.
  std::uint64_t x = write_id * 0x100000001B3ull + index + 1;
  for (std::size_t off = 0; off + 8 <= sector.size(); off += 8) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(sector.data() + off, &z, sizeof(z));
  }
}

bool sector_holds(const Stack& st, std::uint64_t key, std::uint64_t write_id,
                  std::uint32_t index) {
  std::array<std::byte, disk::kSectorSize> got{};
  std::array<std::byte, disk::kSectorSize> expect{};
  st.data_disks.at(key_disk(key))->store().read(key_lba(key), 1, got);
  fill_payload(expect, write_id, index);
  return got == expect;
}

}  // namespace perfbench
