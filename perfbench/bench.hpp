// Shared pieces of the end-to-end benchmark: the storage stack with timed
// set-up phases, host-clock spans, exact percentiles, the block-boundary
// timing shim and the per-episode sample every workload returns.
//
// The benchmark drives the library only through its public API and reads
// only its public stats; nothing under src/ is instrumented for it.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_calibrator.hpp"
#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/block.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace core = trail::core;
namespace disk = trail::disk;
namespace io = trail::io;
namespace obs = trail::obs;
namespace sim = trail::sim;

/// Host time is this process's CPU time: the workloads are single-threaded,
/// and on a shared machine time spent descheduled is not the program's cost.
inline double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double seconds_since(double start) { return host_now() - start; }

/// Spans around single calls use the cheap monotonic clock instead: a call
/// this short is rarely descheduled, and reading the CPU-time clock would
/// cost more than many of the calls it times.
inline double call_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]) of exact samples; 0 if
/// empty. Sorts `v` in place.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// Mean of the slowest 1% of samples (at least one): a tail figure that,
/// unlike a single percentile, does not stick to one of the few discrete
/// latencies a periodic disk model produces. Sorts `v` in place.
inline double tail_mean(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = std::max<std::size_t>(1, v.size() / 100);
  double sum = 0.0;
  for (std::size_t i = v.size() - n; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Every virtual-time value of an episode, printed exactly, so episodes of
/// one seed can be compared for bit-identity.
inline std::string fingerprint(std::initializer_list<double> values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%.17g ", v);
    out += buf;
  }
  return out;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric any workload reports, and every per-layer one.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload parameterisation looks like, for the config stamp.
using Params = std::map<std::string, std::string>;

/// One episode: a fresh stack, the workload at its fixed length, and the
/// correctness checks. Virtual-time values depend only on the seed, so
/// every episode of a run must reproduce the first one's `fingerprint`.
struct Sample {
  std::map<std::string, double> e2e;    // end-to-end metrics by name
  std::map<std::string, double> layer;  // per-layer metrics (traced episodes)
  std::string fingerprint;              // every virtual-time value, printed exactly
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;      // failed correctness or partition checks
  std::vector<std::string> checks;      // names of the checks this episode ran
  double host_s = 0.0;                  // host time of the measured phase
};

struct Options {
  std::uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;         // test-sized run
  bool plant_stale = false;  // corrupt one acked sector before the check
};

/// The paper's hardware: one ST41601N log disk plus WD data disks, with
/// an observability context attached (metrics on, event tracer off).
/// Construction is the stack's set-up; its two phases are timed.
struct Stack {
  sim::Simulator sim;
  obs::Obs obs{sim};
  std::unique_ptr<disk::DiskDevice> log_disk;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<core::TrailDriver> driver;
  std::vector<io::DeviceId> devices;
  double format_host_s = 0.0;     // disk construction, log format, driver mount
  double calibrate_host_s = 0.0;  // δ calibration (§3.1)

  Stack(int data_disk_count, core::TrailConfig config) {
    auto t = host_now();
    log_disk = std::make_unique<disk::DiskDevice>(sim, disk::st41601n());
    for (int i = 0; i < data_disk_count; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g()));
    core::format_log_disk(*log_disk);
    format_host_s = seconds_since(t);
    t = host_now();
    config.delta = core::DeltaCalibrator::run(sim, *log_disk, /*probe_track=*/1).delta_time;
    calibrate_host_s = seconds_since(t);
    t = host_now();
    driver = std::make_unique<core::TrailDriver>(sim, *log_disk, config);
    driver->attach_obs(&obs);
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->mount();
    format_host_s += seconds_since(t);
  }
};

/// Forwarding io::BlockDriver that times every request crossing the
/// fs/db -> Trail boundary on both clocks. Completion latencies are
/// virtual; host time is what the inner driver's submit call costs.
class TimedBlockDriver final : public io::BlockDriver {
 public:
  TimedBlockDriver(sim::Simulator& sim, io::BlockDriver& inner) : sim_(sim), inner_(inner) {}

  void submit_write(io::BlockAddr addr, std::uint32_t count, std::span<const std::byte> data,
                    Completion cb) override {
    const double host0 = call_now();
    inner_.submit_write(addr, count, data,
                        [this, t0 = sim_.now(), cb = std::move(cb)] {
                          write_ms.push_back((sim_.now() - t0).ms());
                          cb();
                        });
    host_s += call_now() - host0;
  }

  void submit_read(io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override {
    const double host0 = call_now();
    inner_.submit_read(addr, count, out, [this, t0 = sim_.now(), cb = std::move(cb)] {
      read_ms.push_back((sim_.now() - t0).ms());
      cb();
    });
    host_s += call_now() - host0;
  }

  void drain(Completion cb) override { inner_.drain(std::move(cb)); }

  std::vector<double> read_ms;
  std::vector<double> write_ms;
  double host_s = 0.0;

 private:
  sim::Simulator& sim_;
  io::BlockDriver& inner_;
};

/// Virtual busy share and per-command component times of a disk group,
/// plus the exact-partition check overhead+seek+rotation+transfer == busy.
void add_disk_metrics(Sample& s, const std::string& prefix,
                      const std::vector<const disk::DiskDevice*>& disks, sim::Duration elapsed);

/// Per-layer metrics every Trail stack exposes: disks, backing store,
/// write-back, driver and request-phase partition (checked exactly).
void add_stack_metrics(Sample& s, Stack& st, sim::Duration elapsed);

/// Workload entry points: one episode each.
Sample run_sync_burst(const Options& opt, Params& params);
Sample run_tpcc(const Options& opt, Params& params);
Sample run_crash_mount(const Options& opt, Params& params);

/// Deterministic payload bytes for sector `index` of write `write_id`.
void fill_payload(std::span<std::byte> sector, std::uint64_t write_id, std::uint32_t index);

/// A data-disk sector as one map key: disk index above bit 40, LBA below.
inline std::uint64_t sector_key(io::DeviceId dev, disk::Lba lba) {
  return std::uint64_t{dev.minor()} << 40 | lba;
}
inline std::size_t key_disk(std::uint64_t key) { return key >> 40; }
inline disk::Lba key_lba(std::uint64_t key) { return key & ((std::uint64_t{1} << 40) - 1); }

/// True when the platter sector behind `key` holds sector `index` of write
/// `write_id`'s payload.
bool sector_holds(const Stack& st, std::uint64_t key, std::uint64_t write_id,
                  std::uint32_t index);

}  // namespace perfbench
