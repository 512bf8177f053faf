// §6 future work: "applying track-based logging directly to database
// logging rather than indirectly through the file system."
//
// In the paper's prototype (and our EXT2+Trail configuration) the
// database's log FILE lives on a data disk: every commit's WAL bytes are
// (1) written to the Trail log disk, acknowledged, and then (2) written
// back to the log-file region of the data disk — the log data moves
// twice. Direct logging appends WAL bytes as Trail records and releases
// them at checkpoint truncation: one copy, no write-back traffic for log
// data, and the log-file data disk disappears from the commit path.

#include "tpcc_harness.hpp"

int main() {
  using namespace trail::bench;
  namespace sim = trail::sim;

  const double scale = tpcc_scale_from_env(1.0);
  const std::uint64_t txns = tpcc_txns_from_env(3000);
  print_heading("direct database logging on Trail vs WAL file on Trail (" +
                std::to_string(txns) + " txns, concurrency 1, w=1 scale " +
                std::to_string(scale) + ")");

  struct Row {
    double resp_ms;
    double tpmc;
    double log_io_sec;
    std::uint64_t log_disk_sectors;
    std::uint64_t wb_sectors;
  };
  Row rows[2];
  for (int direct = 0; direct < 2; ++direct) {
    TpccRig::Options opt;
    opt.scale_factor = scale;
    opt.direct_logging = direct == 1;
    TpccRig rig(StorageConfig::kTrail, opt);
    trail::tpcc::Driver driver(*rig.tpcc_db, 1, sim::Rng(7));
    driver.warm_up(tpcc_warmup_from_env(1500));
    const auto wb_before = rig.trail->driver->stats().writeback_sectors;
    const auto log_before = rig.trail->log_disk->stats().sectors_written;
    const auto io_before = rig.log_io_time();
    const auto result = driver.run(txns);
    rows[direct] = Row{result.response.mean_ms(),
                       result.tpmc(),
                       (rig.log_io_time() - io_before).sec(),
                       rig.trail->log_disk->stats().sectors_written - log_before,
                       rig.trail->driver->stats().writeback_sectors - wb_before};
  }

  sim::TablePrinter table({"metric", "WAL file on Trail", "direct on Trail"});
  table.add_row({"response time (ms)", sim::TablePrinter::fmt(rows[0].resp_ms, 2),
                 sim::TablePrinter::fmt(rows[1].resp_ms, 2)});
  table.add_row({"throughput (tpmC)", sim::TablePrinter::fmt(rows[0].tpmc, 0),
                 sim::TablePrinter::fmt(rows[1].tpmc, 0)});
  table.add_row({"log flush I/O time (s)", sim::TablePrinter::fmt(rows[0].log_io_sec, 1),
                 sim::TablePrinter::fmt(rows[1].log_io_sec, 1)});
  table.add_row({"log-disk sectors written",
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[0].log_disk_sectors)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[1].log_disk_sectors))});
  table.add_row({"write-back sectors",
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[0].wb_sectors)),
                 sim::TablePrinter::fmt_int(static_cast<std::int64_t>(rows[1].wb_sectors))});
  table.print();
  std::printf("\n(direct mode removes the WAL's second copy: its write-back sectors\n"
              " drop by roughly the flushed log volume)\n");
  return 0;
}
