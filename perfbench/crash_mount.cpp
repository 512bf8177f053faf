// crash_mount: Fig. 4a's shape. The log ring is prefilled one record per
// track; then, per crash cycle, the data disks are halted while Q acked
// records accumulate, the power is cut, and a fresh driver mounts with
// the default recovery config (pipeline depth 8, write-back on). After
// each mount every acked sector is read back from the data-disk platters
// and the recovered log must pass audit::verify_log with zero errors.
#include <stdexcept>
#include <unordered_map>

#include "audit/log_verifier.hpp"
#include "bench.hpp"
#include "sim/random.hpp"

namespace perfbench {

Sample run_crash_mount(const Options& opt, Params& params) {
  const std::uint32_t prefill = opt.tiny ? 200 : 3000;
  const std::uint32_t q = opt.tiny ? 16 : 256;
  const std::uint32_t cycles = opt.tiny ? 2 : 3;
  const disk::Lba lba_range = 1 << 20;
  // One record per track, one request per physical write.
  core::TrailConfig shape;
  shape.track_utilization_threshold = 0.0;
  shape.max_requests_per_physical = 1;
  params = {{"prefill_tracks", std::to_string(prefill)},
            {"pending_q", std::to_string(q)},
            {"crash_cycles", std::to_string(cycles)},
            {"data_disks", "2"},
            {"lba_range", std::to_string(lba_range)},
            {"recovery_pipeline_depth", std::to_string(shape.recovery_pipeline_depth)},
            {"recovery_write_back", shape.recovery_write_back ? "1" : "0"}};

  Sample s;
  const auto setup0 = host_now();
  Stack st(2, shape);
  sim::Rng rng(opt.seed);
  std::unordered_map<std::uint64_t, std::uint64_t> last_acked;  // sector -> write id
  std::uint64_t next_id = 0;
  std::uint64_t acked = 0;
  std::vector<std::byte> payload(disk::kSectorSize);
  auto submit = [&] {
    const io::DeviceId dev = st.devices[next_id % st.devices.size()];
    const auto lba = static_cast<disk::Lba>(rng.uniform(0, lba_range - 1));
    const std::uint64_t id = next_id++;
    fill_payload(payload, id, 0);
    st.driver->submit_write(io::BlockAddr{dev, lba}, 1, payload, [&, dev, lba, id] {
      ++acked;
      last_acked[sector_key(dev, lba)] = id;
    });
  };
  auto run_until = [&](const auto& done, const char* what) {
    while (!done())
      if (!st.sim.step()) throw std::runtime_error(std::string("crash_mount: stalled in ") + what);
  };

  const auto prefill0 = host_now();
  for (std::uint32_t i = 0; i < prefill; ++i) submit();
  run_until([&] { return acked == prefill; }, "prefill");
  bool drained = false;
  st.driver->drain([&] { drained = true; });
  run_until([&] { return drained; }, "drain");
  const double prefill_host_s = seconds_since(prefill0);
  const double setup_s = seconds_since(setup0);

  obs::MetricsRegistry& m = st.obs.metrics;
  const char* counters[] = {"recovery.tracks_scanned", "recovery.probe_overshoot",
                            "recovery.records_found", "recovery.stream_commands",
                            "recovery.stream_sectors"};
  std::map<std::string, std::vector<double>> per_cycle;
  std::vector<double> mount_ms;
  std::vector<double> mount_host_ms;
  std::vector<double> records_per_s;
  std::vector<std::unique_ptr<core::TrailDriver>> crashed;
  for (std::uint32_t c = 0; c < cycles; ++c) {
    for (auto& d : st.data_disks) d->crash_halt();
    for (std::uint32_t i = 0; i < q; ++i) {
      submit();
      run_until([&] { return acked == next_id; }, "pending writes");
    }
    st.driver->crash();
    st.log_disk->restart();
    for (auto& d : st.data_disks) d->restart();
    crashed.push_back(std::move(st.driver));

    std::map<std::string, std::uint64_t> before;
    for (const char* name : counters) before[name] = m.counter(name).value();
    st.driver = std::make_unique<core::TrailDriver>(st.sim, *st.log_disk, shape);
    st.driver->attach_obs(&st.obs);
    for (auto& d : st.data_disks) (void)st.driver->add_data_disk(*d);
    const sim::TimePoint t0 = st.sim.now();
    const std::uint64_t events0 = st.sim.events_dispatched();
    const auto host0 = host_now();
    st.driver->mount();
    const double host_ms = seconds_since(host0) * 1e3;
    const auto events = static_cast<double>(st.sim.events_dispatched() - events0);
    const sim::Duration mount = st.sim.now() - t0;
    s.host_s += host_ms / 1e3;
    mount_ms.push_back(mount.ms());
    mount_host_ms.push_back(host_ms);
    records_per_s.push_back(ratio(q, mount.sec()));

    const core::RecoveryStats& rs = st.driver->last_recovery();
    const sim::Duration phases = rs.locate_time + rs.rebuild_time + rs.writeback_time;
    s.checks.push_back("recovery: locate+rebuild+write-back <= mount_ms");
    if (phases > mount)
      s.errors.push_back("recovery: locate+rebuild+write-back " + std::to_string(phases.ms()) +
                         " ms > mount " + std::to_string(mount.ms()) + " ms");
    per_cycle["recovery.locate_ms"].push_back(rs.locate_time.ms());
    per_cycle["recovery.rebuild_ms"].push_back(rs.rebuild_time.ms());
    per_cycle["recovery.writeback_ms"].push_back(rs.writeback_time.ms());
    per_cycle["recovery.sectors_written_back"].push_back(
        static_cast<double>(rs.sectors_written_back));
    per_cycle["recovery.host_ms"].push_back(host_ms);
    per_cycle["sim.events_per_op"].push_back(events);
    per_cycle["sim.host_ns_per_event"].push_back(ratio(host_ms * 1e6, events));
    for (const char* name : counters)
      per_cycle[name].push_back(static_cast<double>(m.counter(name).value() - before[name]));

    // Every acked write, pending ones included, must now be on its data disk.
    std::uint64_t stale = 0;
    for (const auto& [key, id] : last_acked)
      if (!sector_holds(st, key, id, 0)) ++stale;
    if (stale > 0)
      s.errors.push_back(std::to_string(stale) + " acked writes read back stale after mount " +
                         std::to_string(c));
    s.failed += stale;
    s.checks.push_back("every acked write reads back after mount");
    s.checks.push_back("audit::verify_log reports zero errors");
    const trail::audit::Report report = trail::audit::verify_log(*st.log_disk);
    if (report.total_errors() != 0)
      s.errors.push_back("verify_log after mount " + std::to_string(c) + ":\n" +
                         report.to_string());
  }
  s.attempted = next_id;

  const double mean_ms = mean(mount_ms);
  const double tail_ms = tail_mean(mount_ms);
  const double host_ms = percentile(mount_host_ms, 50);
  const double recs = percentile(records_per_s, 50);
  s.e2e = {{"mount_ms", mean_ms},
           {"mount_host_ms", host_ms},
           {"virt_mean_ms", mean_ms},
           {"virt_tail_ms", tail_ms},
           {"virt_ops_per_s", recs},
           {"host_ops_per_s", ratio(1e3, host_ms)},
           {"setup_s", setup_s}};
  s.fingerprint = fingerprint({mean_ms, tail_ms, recs, static_cast<double>(st.sim.now().ns()),
                               static_cast<double>(st.sim.events_dispatched())});

  if (opt.trace) {
    add_stack_metrics(s, st, st.sim.now() - sim::TimePoint{});
    for (auto& [name, values] : per_cycle) s.layer[name] = percentile(values, 50);
    s.layer["setup.format_host_s"] = st.format_host_s;
    s.layer["setup.calibrate_host_s"] = st.calibrate_host_s;
    s.layer["setup.prefill_host_s"] = prefill_host_s;
  }
  return s;
}

}  // namespace perfbench
