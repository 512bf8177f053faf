// tpcc_demo: a small TPC-C run over Trail, printing the per-transaction-
// type latency profile and the driver's internal statistics — a guided
// tour of what the Table 2 benchmark measures.
//
// Usage: tpcc_demo [scale] [txns] [concurrency]   (defaults 0.1 500 4)

#include <cstdio>
#include <cstdlib>

#include "core/delta_calibrator.hpp"
#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "db/database.hpp"
#include "disk/profile.hpp"
#include "sim/simulator.hpp"
#include "tpcc/driver.hpp"

using namespace trail;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  const auto txns = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 500);
  const auto concurrency = static_cast<std::uint32_t>(argc > 3 ? std::atoi(argv[3]) : 4);

  sim::Simulator simulator;
  disk::DiskDevice log_disk(simulator, disk::st41601n());
  disk::DiskDevice wal_disk(simulator, disk::wd_caviar_10g());
  disk::DiskDevice main_disk(simulator, disk::wd_caviar_10g());
  disk::DiskDevice item_disk(simulator, disk::wd_caviar_10g());
  core::format_log_disk(log_disk);

  core::TrailDriver driver(simulator, log_disk);
  const io::DeviceId wal_id = driver.add_data_disk(wal_disk);
  const io::DeviceId main_id = driver.add_data_disk(main_disk);
  const io::DeviceId item_id = driver.add_data_disk(item_disk);
  driver.mount();

  db::Database database(simulator, driver, wal_id);
  database.attach_device(wal_id, wal_disk);
  database.attach_device(main_id, main_disk);
  database.attach_device(item_id, item_disk);
  tpcc::TpccDatabase tpcc_db(database, tpcc::Scale::reduced(scale), main_id, item_id);
  sim::Rng rng(42);
  std::printf("populating TPC-C w=1 at scale %.2f...\n", scale);
  tpcc_db.populate(rng);
  std::printf("  %llu customers, %llu items, %llu stock rows, %llu orders\n",
              static_cast<unsigned long long>(database.table_named("customer").row_count()),
              static_cast<unsigned long long>(database.table_named("item").row_count()),
              static_cast<unsigned long long>(database.table_named("stock").row_count()),
              static_cast<unsigned long long>(database.table_named("orders").row_count()));

  tpcc::Driver bench(tpcc_db, concurrency, sim::Rng(7));
  std::printf("running %llu transactions at concurrency %u...\n",
              static_cast<unsigned long long>(txns), concurrency);
  const tpcc::BenchResult result = bench.run(txns);

  std::printf("\ncommitted %llu (%llu new-order), aborted %llu, intentional rollbacks %llu\n",
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.new_order_commits),
              static_cast<unsigned long long>(result.aborted),
              static_cast<unsigned long long>(result.user_aborts));
  std::printf("throughput: %.0f tpmC | response mean %.1f ms (new-order %.1f ms, p99 %.1f ms)\n",
              result.tpmc(), result.response.mean_ms(), result.new_order_response.mean_ms(),
              result.response.percentile_ms(99));

  const auto& ts = driver.stats();
  std::printf("\nTrail driver internals:\n");
  std::printf("  %llu sync writes logged in %llu physical log writes (batch factor %.1f)\n",
              static_cast<unsigned long long>(ts.requests_logged),
              static_cast<unsigned long long>(ts.physical_log_writes), ts.mean_batch_size());
  std::printf("  track switches %llu | idle repositions %llu | log-full stalls %llu\n",
              static_cast<unsigned long long>(ts.track_switches),
              static_cast<unsigned long long>(ts.idle_repositions),
              static_cast<unsigned long long>(ts.log_full_stalls));
  std::printf("  reads %llu (%llu served from the staging buffer)\n",
              static_cast<unsigned long long>(ts.reads),
              static_cast<unsigned long long>(ts.read_buffer_hits));
  std::printf("  write-backs %llu, skipped as superseded %llu\n",
              static_cast<unsigned long long>(ts.writebacks),
              static_cast<unsigned long long>(ts.writebacks_skipped));
  std::printf("  staging buffer high water: %.1f KB\n",
              static_cast<double>(driver.buffers().pinned_bytes_high_water()) / 1024.0);

  auto consistency = tpcc_db.check_consistency(simulator);
  std::printf("\nTPC-C consistency check: %s%s\n", consistency.ok ? "OK" : "FAILED: ",
              consistency.ok ? "" : consistency.detail.c_str());

  bool drained = false;
  driver.drain([&] { drained = true; });
  while (!drained) simulator.step();
  driver.unmount();
  return consistency.ok ? 0 : 1;
}
