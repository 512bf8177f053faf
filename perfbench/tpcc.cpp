// tpcc: Table 2's EXT2+Trail configuration at w = 1, four terminals and a
// 50 KB log buffer, with a buffer pool of about a fifth of the populated
// pages. Pool misses and dirty evictions send page reads and writes
// through fs -> Trail beside the WAL's synchronous appends, so Trail
// serves reads from pinned log memory or against write-back (§4.3).
#include <functional>
#include <stdexcept>

#include "bench.hpp"
#include "fs/filesystem.hpp"
#include "tpcc/transactions.hpp"

namespace perfbench {

namespace db = trail::db;
namespace fs = trail::fs;
namespace tpcc = trail::tpcc;

namespace {

/// A transaction aborted by a lock timeout is resubmitted by its terminal,
/// as a TPC-C terminal would; only one still aborted after this many
/// attempts counts as failed.
constexpr int kMaxAttempts = 10;

/// Closed-loop terminals: each runs mixed transactions back to back from
/// one shared issue budget, so exactly `txns` complete per window. A
/// transaction's response time runs from its first submission to its last
/// attempt's end.
struct Window {
  std::vector<double> txn_ms;        // every completed transaction
  std::vector<double> new_order_ms;  // committed NEW-ORDERs
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;         // lock-timeout aborts that were resubmitted
  std::uint64_t failed = 0;          // still aborted after kMaxAttempts
  sim::Duration wall;

  [[nodiscard]] double tpmc() const {
    return ratio(static_cast<double>(new_order_ms.size()), wall.sec() / 60.0);
  }
};

Window run_terminals(sim::Simulator& sim, std::vector<std::unique_ptr<tpcc::TxnRunner>>& runners,
                     std::uint64_t txns) {
  Window w;
  std::uint64_t issued = 0;
  const sim::TimePoint start = sim.now();
  std::function<void(std::size_t)> next;
  std::function<void(std::size_t, tpcc::TxnType, sim::TimePoint, int)> attempt =
      [&](std::size_t i, tpcc::TxnType type, sim::TimePoint t0, int tries) {
        runners[i]->run(type, [&, i, type, t0, tries](tpcc::TxnResult r) {
          // NEW-ORDER's intentional 1% rollback is a completed transaction.
          if (!r.committed && !r.user_abort) {
            if (tries < kMaxAttempts) {
              ++w.retries;
              attempt(i, type, t0, tries + 1);
              return;
            }
            ++w.failed;
          }
          const double ms = (sim.now() - t0).ms();
          w.txn_ms.push_back(ms);
          ++w.completed;
          if (r.committed && r.type == tpcc::TxnType::kNewOrder) w.new_order_ms.push_back(ms);
          next(i);
        });
      };
  next = [&](std::size_t i) {
    if (issued == txns) return;
    ++issued;
    attempt(i, tpcc::pick_txn_type(runners[i]->rng()), sim.now(), 1);
  };
  for (std::size_t i = 0; i < runners.size(); ++i) next(i);
  while (w.completed < txns)
    if (!sim.step()) throw std::runtime_error("tpcc: simulation stalled");
  w.wall = sim.now() - start;
  return w;
}

}  // namespace

Sample run_tpcc(const Options& opt, Params& params) {
  const double scale = opt.tiny ? 0.05 : 1.0;
  const std::uint32_t terminals = 4;
  const std::size_t pool_pages = opt.tiny ? 300 : 3000;
  const std::size_t log_buffer_bytes = 50 * 1024;
  const std::uint64_t warmup = opt.tiny ? 40 : 1000;
  const std::uint64_t txns = opt.tiny ? 120 : 8000;
  params = {{"scale", std::to_string(scale)},
            {"terminals", std::to_string(terminals)},
            {"pool_pages", std::to_string(pool_pages)},
            {"log_buffer_bytes", std::to_string(log_buffer_bytes)},
            {"warmup_txns", std::to_string(warmup)},
            {"txns", std::to_string(txns)},
            {"max_attempts", std::to_string(kMaxAttempts)},
            {"data_disks", "3"},
            {"trail_config", "default"}};

  Sample s;
  const auto setup0 = host_now();
  Stack st(3, core::TrailConfig{});
  // The shim sits between fs/db and the driver only in traced episodes.
  std::unique_ptr<TimedBlockDriver> shim;
  io::BlockDriver* block = st.driver.get();
  if (opt.trace) {
    shim = std::make_unique<TimedBlockDriver>(st.sim, *st.driver);
    block = shim.get();
  }

  db::DbConfig dbc;
  dbc.buffer_pool_pages = pool_pages;
  dbc.log_buffer_bytes = log_buffer_bytes;
  dbc.log_region_sectors = 1 << 19;
  const io::DeviceId log_id = st.devices[0];
  const io::DeviceId main_id = st.devices[1];
  const io::DeviceId item_id = st.devices[2];
  db::Database database(st.sim, *block, log_id, dbc);
  std::vector<std::unique_ptr<fs::Filesystem>> filesystems;
  auto t = host_now();
  for (std::size_t i = 0; i < 3; ++i) {
    disk::DiskDevice& d = *st.data_disks[i];
    fs::mkfs(d, fs::MkfsParams{0, d.geometry().total_sectors()});
    filesystems.push_back(std::make_unique<fs::Filesystem>(*block, st.devices[i], d));
    filesystems.back()->mount();
    database.attach_filesystem(st.devices[i], *filesystems.back());
  }
  for (std::size_t i = 0; i < 3; ++i) database.attach_device(st.devices[i], *st.data_disks[i]);
  const double mkfs_host_s = seconds_since(t);
  t = host_now();
  tpcc::TpccDatabase tpcc_db(database, tpcc::Scale::reduced(scale), main_id, item_id);
  sim::Rng rng(opt.seed);
  tpcc_db.populate(rng);
  const double populate_host_s = seconds_since(t);
  const double setup_s = seconds_since(setup0);

  std::vector<std::unique_ptr<tpcc::TxnRunner>> runners;
  for (std::uint32_t i = 0; i < terminals; ++i)
    runners.push_back(std::make_unique<tpcc::TxnRunner>(tpcc_db, rng.split()));
  (void)run_terminals(st.sim, runners, warmup);

  const db::BufferPoolStats pool0 = database.pool().stats();
  const db::WalStats wal0 = database.wal().stats();
  const db::LockStats lock0 = database.locks().stats();
  const std::size_t reads0 = shim ? shim->read_ms.size() : 0;
  const std::size_t writes0 = shim ? shim->write_ms.size() : 0;
  const std::uint64_t events0 = st.sim.events_dispatched();
  const auto host0 = host_now();
  Window w = run_terminals(st.sim, runners, txns);
  s.host_s = seconds_since(host0);
  const std::uint64_t events = st.sim.events_dispatched() - events0;

  s.checks.push_back("TpccDatabase::check_consistency");
  const auto report = tpcc_db.check_consistency(st.sim);
  if (!report.ok) s.errors.push_back("tpcc consistency: " + report.detail);
  s.attempted = txns;
  s.failed = w.failed;

  const double mean_ms = mean(w.txn_ms);
  const double tail_ms = tail_mean(w.txn_ms);
  const double p50 = percentile(w.txn_ms, 50);
  const double p99 = percentile(w.txn_ms, 99);
  const double host_tps = ratio(static_cast<double>(txns), s.host_s);
  s.e2e = {{"txn_mean_ms", mean_ms},
           {"txn_p50_ms", p50},
           {"txn_p99_ms", p99},
           {"tpmc", w.tpmc()},
           {"host_txns_per_s", host_tps},
           {"virt_mean_ms", mean_ms},
           {"virt_tail_ms", tail_ms},
           {"virt_ops_per_s", w.tpmc() / 60.0},
           {"host_ops_per_s", host_tps},
           {"setup_s", setup_s}};
  s.fingerprint = fingerprint({mean_ms, tail_ms, p50, p99, w.tpmc(), w.wall.sec(),
                               static_cast<double>(w.retries), static_cast<double>(events)});

  if (opt.trace) {
    const auto n = static_cast<double>(txns);
    add_stack_metrics(s, st, st.sim.now() - sim::TimePoint{});
    s.layer["sim.events_per_op"] = ratio(static_cast<double>(events), n);
    s.layer["sim.host_ns_per_event"] = ratio(s.host_s * 1e9, static_cast<double>(events));
    s.layer["trail.submit_host_ns"] =
        ratio(shim->host_s * 1e9, static_cast<double>(shim->read_ms.size() + shim->write_ms.size()));

    std::vector<double> reads(shim->read_ms.begin() + static_cast<std::ptrdiff_t>(reads0),
                              shim->read_ms.end());
    std::vector<double> writes(shim->write_ms.begin() + static_cast<std::ptrdiff_t>(writes0),
                               shim->write_ms.end());
    s.layer["block.reads_per_txn"] = static_cast<double>(reads.size()) / n;
    s.layer["block.writes_per_txn"] = static_cast<double>(writes.size()) / n;
    s.layer["block.read_ms.p50"] = percentile(reads, 50);
    s.layer["block.read_ms.p99"] = percentile(reads, 99);
    s.layer["block.write_ms.p50"] = percentile(writes, 50);
    s.layer["block.write_ms.p99"] = percentile(writes, 99);

    const db::BufferPoolStats& pool = database.pool().stats();
    const db::WalStats& wal = database.wal().stats();
    const db::LockStats& lock = database.locks().stats();
    const auto hits = static_cast<double>(pool.hits - pool0.hits);
    const auto misses = static_cast<double>(pool.misses - pool0.misses);
    const auto flushes = static_cast<double>(wal.flushes - wal0.flushes);
    s.layer["db.pool.hit_frac"] = ratio(hits, hits + misses);
    s.layer["db.pool.evictions_per_txn"] = static_cast<double>(pool.evictions - pool0.evictions) / n;
    s.layer["db.wal.flushes_per_txn"] = flushes / n;
    s.layer["db.wal.flush_io_ms_mean"] = ratio((wal.flush_io_time - wal0.flush_io_time).ms(), flushes);
    s.layer["db.wal.commit_wait_ms_per_txn"] = (wal.flush_wait - wal0.flush_wait).ms() / n;
    s.layer["db.lock.wait_ms_per_txn"] = (lock.wait_time - lock0.wait_time).ms() / n;
    s.layer["db.lock.timeouts"] = static_cast<double>(lock.timeouts - lock0.timeouts);
    s.layer["tpcc.new_order_p50_ms"] = percentile(w.new_order_ms, 50);
    s.layer["tpcc.new_order_p99_ms"] = percentile(w.new_order_ms, 99);
    s.layer["setup.format_host_s"] = st.format_host_s;
    s.layer["setup.calibrate_host_s"] = st.calibrate_host_s;
    s.layer["setup.mkfs_host_s"] = mkfs_host_s;
    s.layer["setup.populate_host_s"] = populate_host_s;
  }
  return s;
}

}  // namespace perfbench
