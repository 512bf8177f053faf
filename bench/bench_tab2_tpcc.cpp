// Table 2: TPC-C (w = 1) — 5000 transactions at concurrency 1, log buffer
// 50 KB — comparing EXT2+Trail, EXT2 (sync commit on the standard disk
// subsystem) and EXT2+GC (group commit on the standard subsystem).
//
// Paper's row values: response time 0.059 / 0.097 / 0.90(*) s; disk I/O
// time for logging 17.6 / 30.4 / 28.8 s; throughput 1004 / 616 / 663 tpmC
// (Trail = 1.51x GC, GC = 1.08x plain, Trail = 1.63x plain — the
// abstract's "62.9% higher" is Trail vs plain EXT2).
// (*) the 0.90 s EXT2+GC response time in the paper reflects commit
// latency inflated by the delayed group flush; our group-commit model
// returns non-flushing commits immediately, so our GC response time is
// bimodal instead — the flushing transaction pays the whole batch.

#include "tpcc_harness.hpp"

namespace trail::bench {
namespace {

struct Row {
  double resp_sec;
  double durability_sec;  // commit return -> durable (response incl. flush lag)
  double log_io_sec;
  double tpmc;
  double txn_per_min;
  std::uint64_t flushes;
  std::uint64_t aborts;
};

Row run_config(StorageConfig cfg, double scale, std::uint64_t txns, std::uint64_t warmup,
               std::uint32_t concurrency, std::size_t trail_shards = 1) {
  TpccRig::Options opt;
  opt.scale_factor = scale;
  opt.trail_shards = trail_shards;
  TpccRig rig(cfg, opt);
  tpcc::Driver driver(*rig.tpcc_db, concurrency, sim::Rng(7));
  driver.warm_up(warmup);  // the paper warms with 200k transactions
  const auto log_io_before = rig.log_io_time();
  const auto flushes_before = rig.database->wal().stats().flushes;
  const tpcc::BenchResult result = driver.run(txns);

  Row row;
  row.resp_sec = result.response.mean_ms() / 1000.0;
  const auto& ws = rig.database->wal().stats();
  // Durability-inclusive response: add the mean deferred-commit lag.
  const double lag =
      ws.lag_samples == 0 ? 0.0 : ws.durability_lag.sec() / static_cast<double>(ws.lag_samples);
  row.durability_sec = row.resp_sec + lag;
  row.log_io_sec = (rig.log_io_time() - log_io_before).sec();
  row.tpmc = result.tpmc();
  row.txn_per_min = result.txn_per_min();
  row.flushes = ws.flushes - flushes_before;
  row.aborts = result.aborted;
  return row;
}

}  // namespace
}  // namespace trail::bench

int main() {
  using namespace trail::bench;
  namespace sim = trail::sim;

  const double scale = tpcc_scale_from_env(1.0);
  const std::uint64_t txns = tpcc_txns_from_env(5000);
  const std::uint64_t warmup = tpcc_warmup_from_env(3000);
  print_heading("Table 2: TPC-C, " + std::to_string(txns) +
                " transactions, concurrency 1, w=1 (scale " + std::to_string(scale) +
                "), 50KB log buffer");

  sim::TablePrinter table({"Storage System", "EXT2+Trail", "EXT2", "EXT2+GC"});
  Row rows[3];
  const StorageConfig configs[3] = {StorageConfig::kTrail, StorageConfig::kStandard,
                                    StorageConfig::kStandardGroupCommit};
  for (int i = 0; i < 3; ++i) rows[i] = run_config(configs[i], scale, txns, warmup, 1);

  table.add_row({"Average Response Time (sec)", sim::TablePrinter::fmt(rows[0].resp_sec, 3),
                 sim::TablePrinter::fmt(rows[1].resp_sec, 3),
                 sim::TablePrinter::fmt(rows[2].resp_sec, 3)});
  table.add_row({"... incl. durability lag (sec)",
                 sim::TablePrinter::fmt(rows[0].durability_sec, 3),
                 sim::TablePrinter::fmt(rows[1].durability_sec, 3),
                 sim::TablePrinter::fmt(rows[2].durability_sec, 3)});
  table.add_row({"Disk I/O Time for Logging (sec)",
                 sim::TablePrinter::fmt(rows[0].log_io_sec, 1),
                 sim::TablePrinter::fmt(rows[1].log_io_sec, 1),
                 sim::TablePrinter::fmt(rows[2].log_io_sec, 1)});
  table.add_row({"Throughput (tpmC)", sim::TablePrinter::fmt(rows[0].tpmc, 0),
                 sim::TablePrinter::fmt(rows[1].tpmc, 0),
                 sim::TablePrinter::fmt(rows[2].tpmc, 0)});
  table.add_row({"Log flushes (sync writes)", sim::TablePrinter::fmt_int(
                                                  static_cast<std::int64_t>(rows[0].flushes)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[1].flushes)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[2].flushes))});
  table.add_row({"Aborts (lock timeouts)",
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[0].aborts)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[1].aborts)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[2].aborts))});
  table.print();

  std::printf("\nratios: Trail/GC throughput %.2fx (paper 1.51x) | GC/plain %.2fx (paper 1.08x)"
              " | Trail/plain %.2fx (paper 1.63x, '62.9%% higher')\n",
              rows[0].tpmc / rows[2].tpmc, rows[2].tpmc / rows[1].tpmc,
              rows[0].tpmc / rows[1].tpmc);
  std::printf("log I/O reduction Trail vs plain: %.0f%% (paper: 42%%)\n",
              (1.0 - rows[0].log_io_sec / rows[1].log_io_sec) * 100.0);

  // §5.2 measures Table 2 "for various concurrency levels" but prints the
  // concurrency-1 column; sweep the rest here.
  print_heading("Table 2 extension: tpmC across concurrency levels");
  sim::TablePrinter sweep({"Concurrency", "EXT2+Trail", "EXT2", "EXT2+GC", "Trail/plain"});
  const std::uint64_t sweep_txns = txns / 2;
  for (const std::uint32_t c : {1u, 4u, 8u}) {
    Row r[3];
    for (int i = 0; i < 3; ++i) r[i] = run_config(configs[i], scale, sweep_txns, warmup / 2, c);
    sweep.add_row({sim::TablePrinter::fmt_int(c), sim::TablePrinter::fmt(r[0].tpmc, 0),
                   sim::TablePrinter::fmt(r[1].tpmc, 0), sim::TablePrinter::fmt(r[2].tpmc, 0),
                   sim::TablePrinter::fmt(r[0].tpmc / r[1].tpmc, 2) + "x"});
  }
  sweep.print();

  // The scale-out path: the same TPC-C load through a ShardedDriver
  // (extent-hash routed TrailDriver shards, one log disk each). At
  // concurrency 1 the WAL serializes commits so sharding is neutral;
  // the comparison runs at concurrency 8 where independent shards can
  // overlap log writes.
  print_heading("EXT2+Trail through the sharded driver (concurrency 8)");
  sim::TablePrinter sharded({"Trail shards", "resp (sec)", "tpmC", "vs 1 shard"});
  double base_tpmc = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const Row r =
        run_config(StorageConfig::kTrail, scale, sweep_txns, warmup / 2, 8, shards);
    if (shards == 1) base_tpmc = r.tpmc;
    sharded.add_row({sim::TablePrinter::fmt_int(static_cast<std::int64_t>(shards)),
                     sim::TablePrinter::fmt(r.resp_sec, 3), sim::TablePrinter::fmt(r.tpmc, 0),
                     sim::TablePrinter::fmt(r.tpmc / base_tpmc, 2) + "x"});
  }
  sharded.print();
  return 0;
}
