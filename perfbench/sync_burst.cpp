// sync_burst: Fig. 3b's MPL-5 case. Five simulated processes each issue
// clustered 1 KB synchronous writes to random targets on three data disks
// (closed loop: the next write follows the previous ack), then the driver
// drains write-back. Every write carries a distinct payload; after the
// drain each acked sector is read back from the data-disk platters.
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kPauseOneIn = 50;
constexpr std::int64_t kPauseNsMax = 2'000'000;

struct Burst {
  Burst(Stack& st, std::uint32_t procs, std::uint32_t per_proc, std::uint32_t warmup,
        std::uint32_t sectors, std::uint64_t seed, bool trace)
      : st(st), per_proc(per_proc), warmup(warmup), sectors(sectors), trace(trace),
        buf(static_cast<std::size_t>(sectors) * disk::kSectorSize) {
    sim::Rng seeder(seed);
    for (std::uint32_t p = 0; p < procs; ++p) rngs.push_back(seeder.split());
    issued.assign(procs, 0);
    device_sectors = st.data_disks[0]->geometry().total_sectors();
  }

  void issue(std::uint32_t p) {
    if (issued[p] == per_proc + warmup) return;
    const bool measured = issued[p] >= warmup;
    ++issued[p];
    sim::Rng& rng = rngs[p];
    const io::DeviceId dev = st.devices[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(st.devices.size()) - 1))];
    const auto lba = static_cast<disk::Lba>(
        rng.uniform(0, static_cast<std::int64_t>(device_sectors - sectors - 1)));
    const std::uint64_t id = next_id++;
    for (std::uint32_t i = 0; i < sectors; ++i)
      fill_payload(std::span(buf).subspan(std::size_t{i} * disk::kSectorSize, disk::kSectorSize),
                   id, i);
    const sim::TimePoint t0 = st.sim.now();
    if (measured && !started) {
      started = true;
      first_measured_submit = t0;
    }
    auto ack = [this, p, id, dev, lba, t0, measured] {
      ++acked;
      if (measured) {
        latency_ms.push_back((st.sim.now() - t0).ms());
        last_measured_ack = st.sim.now();
      }
      for (std::uint32_t i = 0; i < sectors; ++i)
        last_acked[sector_key(dev, lba + i)] = {id, i};
      // Clustered: the next write follows the ack at once, except for an
      // occasional seeded pause that shifts the process's phase.
      if (rngs[p].uniform(0, kPauseOneIn - 1) != 0) {
        issue(p);
      } else {
        st.sim.schedule(sim::nanos(rngs[p].uniform(0, kPauseNsMax)), [this, p] { issue(p); });
      }
    };
    const double host0 = trace ? call_now() : 0.0;
    st.driver->submit_write(io::BlockAddr{dev, lba}, sectors, buf, std::move(ack));
    if (trace) submit_host_s += call_now() - host0;
  }

  /// Distinct acked writes with a sector whose platter bytes are not that
  /// write's payload.
  std::uint64_t stale_writes() const {
    std::unordered_set<std::uint64_t> stale;
    for (const auto& [key, owner] : last_acked)
      if (!sector_holds(st, key, owner.id, owner.index)) stale.insert(owner.id);
    return stale.size();
  }

  struct Owner {
    std::uint64_t id = 0;
    std::uint32_t index = 0;
  };

  Stack& st;
  std::uint32_t per_proc;
  std::uint32_t warmup;
  std::uint32_t sectors;
  bool trace;
  disk::Lba device_sectors = 0;
  std::vector<sim::Rng> rngs;
  std::vector<std::uint32_t> issued;
  std::vector<std::byte> buf;
  std::uint64_t next_id = 0;
  std::uint64_t acked = 0;
  std::vector<double> latency_ms;
  bool started = false;
  sim::TimePoint first_measured_submit{};
  sim::TimePoint last_measured_ack{};
  std::unordered_map<std::uint64_t, Owner> last_acked;  // sector -> newest acked write
  double submit_host_s = 0.0;
};

}  // namespace

Sample run_sync_burst(const Options& opt, Params& params) {
  const std::uint32_t procs = 5;
  const std::uint32_t sectors = 2;  // 1 KB
  const std::uint32_t per_proc = opt.tiny ? 40 : 700;
  const std::uint32_t warmup = opt.tiny ? 4 : 20;
  params = {{"processes", std::to_string(procs)},
            {"write_bytes", std::to_string(sectors * disk::kSectorSize)},
            {"writes_per_process", std::to_string(per_proc)},
            {"warmup_per_process", std::to_string(warmup)},
            {"pause_one_in", std::to_string(kPauseOneIn)},
            {"pause_ns_max", std::to_string(kPauseNsMax)},
            {"data_disks", "3"},
            {"trail_config", "default"}};

  Sample s;
  const auto setup0 = host_now();
  Stack st(3, core::TrailConfig{});
  const double setup_s = seconds_since(setup0);

  Burst burst(st, procs, per_proc, warmup, sectors, opt.seed, opt.trace);
  const std::uint64_t total = std::uint64_t{procs} * (per_proc + warmup);
  const std::uint64_t events0 = st.sim.events_dispatched();
  std::int64_t backlog_max = 0;
  sim::TimePoint next_sample = st.sim.now();
  auto step = [&] {
    if (!st.sim.step()) throw std::runtime_error("sync_burst: simulation stalled");
    if (opt.trace && st.sim.now() >= next_sample) {
      // Write-back backlog on a fixed 10 ms virtual grid.
      const core::TrailStats& ts = st.driver->stats();
      backlog_max = std::max(backlog_max, static_cast<std::int64_t>(
                                              ts.writebacks - ts.writebacks_dispatched -
                                              ts.writebacks_skipped));
      next_sample = next_sample + sim::millis(10);
    }
  };

  const auto host0 = host_now();
  // Processes start at seeded offsets within one 20 ms window, so the
  // seed moves their phase against the platter and each other.
  sim::Rng start_rng(opt.seed ^ 0x5EED);
  for (std::uint32_t p = 0; p < procs; ++p)
    st.sim.schedule(sim::nanos(start_rng.uniform(0, 20'000'000)), [&burst, p] { burst.issue(p); });
  while (burst.acked < total) step();
  const double write_host_s = seconds_since(host0);

  const sim::TimePoint drain0 = st.sim.now();
  const auto host1 = host_now();
  bool drained = false;
  st.driver->drain([&] { drained = true; });
  while (!drained) step();
  const double drain_host_s = seconds_since(host1);
  const sim::Duration drain_time = st.sim.now() - drain0;
  s.host_s = write_host_s + drain_host_s;
  const std::uint64_t events = st.sim.events_dispatched() - events0;

  if (opt.plant_stale && !burst.last_acked.empty()) {
    // An acked sector silently left holding another write's bytes.
    const auto& [key, owner] = *burst.last_acked.begin();
    std::vector<std::byte> stale(disk::kSectorSize);
    fill_payload(stale, owner.id + 1, owner.index);
    st.data_disks.at(key_disk(key))->store().write(key_lba(key), 1, stale);
  }
  s.attempted = total;
  s.checks.push_back("every acked write reads back after the drain");
  const std::uint64_t stale = burst.stale_writes();
  s.failed = (total - burst.acked) + stale;
  if (s.failed > 0)
    s.errors.push_back(std::to_string(total - burst.acked) + " writes unacked, " +
                       std::to_string(stale) + " acked writes read back stale");

  const double mean_ms = mean(burst.latency_ms);
  const double tail_ms = tail_mean(burst.latency_ms);
  const double p50 = percentile(burst.latency_ms, 50);
  const double p99 = percentile(burst.latency_ms, 99);
  const double wps = ratio(static_cast<double>(burst.latency_ms.size()),
                           (burst.last_measured_ack - burst.first_measured_submit).sec());
  const double host_wps = ratio(static_cast<double>(total), s.host_s);
  s.e2e = {{"write_mean_ms", mean_ms},
           {"write_p50_ms", p50},
           {"write_p99_ms", p99},
           {"write_wps", wps},
           {"host_writes_per_s", host_wps},
           {"virt_mean_ms", mean_ms},
           {"virt_tail_ms", tail_ms},
           {"virt_ops_per_s", wps},
           {"host_ops_per_s", host_wps},
           {"setup_s", setup_s}};
  s.fingerprint = fingerprint({mean_ms, tail_ms, p50, p99, wps, drain_time.sec(),
                               static_cast<double>(st.sim.now().ns()),
                               static_cast<double>(events)});

  if (opt.trace) {
    add_stack_metrics(s, st, st.sim.now() - sim::TimePoint{});
    s.layer["sim.events_per_op"] = ratio(static_cast<double>(events), static_cast<double>(total));
    s.layer["sim.host_ns_per_event"] = ratio(s.host_s * 1e9, static_cast<double>(events));
    s.layer["wb.backlog_max"] = static_cast<double>(backlog_max);
    s.layer["wb.drain_s"] = drain_time.sec();
    s.layer["trail.submit_host_ns"] = ratio(burst.submit_host_s * 1e9, static_cast<double>(total));
    s.layer["setup.format_host_s"] = st.format_host_s;
    s.layer["setup.calibrate_host_s"] = st.calibrate_host_s;
  }
  return s;
}

}  // namespace perfbench
