// timeseries: a durable time-series store on Trail — every sample is a
// synchronous transaction (sensor data must survive power cuts), queries
// are time-range scans over the disk-backed B+-tree.
//
// Shows the ordered access method (db::BTree) working with the engine:
// samples land in a WAL-protected table keyed by timestamp, and the
// B+-tree doubles as the ordered index for range queries. After a crash
// the table replays from the WAL and the index is rebuilt from it — the
// same recovery discipline TPC-C's name index uses.

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "db/btree.hpp"
#include "db/database.hpp"
#include "disk/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace trail;

namespace {

struct Sample {
  std::uint64_t timestamp_ms;
  double value;
};

}  // namespace

int main() {
  sim::Simulator simulator;
  disk::DiskDevice log_disk(simulator, disk::st41601n());
  disk::DiskDevice data_disk(simulator, disk::wd_caviar_10g());
  core::format_log_disk(log_disk);
  core::TrailDriver trail(simulator, log_disk);
  const io::DeviceId dev = trail.add_data_disk(data_disk);
  trail.mount();

  db::DbConfig cfg;
  cfg.buffer_pool_pages = 256;
  db::Database database(simulator, trail, dev, cfg);
  database.attach_device(dev, data_disk);
  const auto samples = database.create_table("samples", sizeof(Sample), 100'000, dev);

  // The ordered index: timestamp -> timestamp (the table key is already
  // the timestamp; a secondary index would store a row locator).
  db::PageFile index_file(trail, io::BlockAddr{dev, 6'000'000}, 2'000);
  const auto index_fid = database.pool().register_file(index_file);
  db::BTree index(database.pool(), index_fid, index_file, &data_disk);
  index.init_empty_offline();

  auto pump = [&](const bool& flag) {
    while (!flag) simulator.step();
  };

  // Ingest 500 samples, one durable transaction each.
  sim::Rng rng(7);
  std::uint64_t ts = 1'000'000;
  const sim::TimePoint t0 = simulator.now();
  for (int i = 0; i < 500; ++i) {
    ts += static_cast<std::uint64_t>(rng.uniform(50, 150));
    Sample s{ts, 20.0 + rng.uniform(-50, 50) / 10.0};
    db::RowBuf row(sizeof(Sample));
    std::memcpy(row.data(), &s, sizeof(Sample));

    db::Txn& txn = database.begin();
    bool done = false;
    txn.insert(samples, s.timestamp_ms, std::move(row), [&](bool ok) {
      if (!ok) std::printf("insert failed!\n");
      done = true;
    });
    pump(done);
    done = false;
    database.commit(txn, [&](bool) { done = true; });
    pump(done);
    done = false;
    index.insert(s.timestamp_ms, s.timestamp_ms, [&](bool) { done = true; });
    pump(done);
  }
  const double per_sample_ms = (simulator.now() - t0).ms() / 500.0;
  std::printf("ingested 500 durable samples at %.2f ms each (tree height %u, %u pages)\n",
              per_sample_ms, index.height(), index.pages_used());

  // Range query: the middle fifth of the time span, via the B+-tree.
  const std::uint64_t lo = 1'000'000 + (ts - 1'000'000) * 2 / 5;
  const std::uint64_t hi = 1'000'000 + (ts - 1'000'000) * 3 / 5;
  int count = 0;
  double sum = 0;
  bool scan_done = false;
  std::vector<std::uint64_t> hits;
  index.scan(
      lo, hi,
      [&hits](db::Key k, db::BTree::Value) {
        hits.push_back(k);
        return true;
      },
      [&] { scan_done = true; });
  pump(scan_done);

  for (const std::uint64_t key : hits) {
    db::Txn& txn = database.begin();
    bool done = false;
    txn.get(samples, key, [&](bool found, db::RowView row) {
      if (found) {
        Sample s;
        std::memcpy(&s, row.data(), sizeof(Sample));
        sum += s.value;
        ++count;
      }
      done = true;
    });
    pump(done);
    done = false;
    database.commit(txn, [&](bool) { done = true; });
    pump(done);
  }
  std::printf("range [%llu, %llu]: %d samples, mean value %.2f\n",
              static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi), count,
              count ? sum / count : 0.0);

  // Clean shutdown flushes the dirty pages; the index is rebuilt from the
  // table at the next boot.
  bool flushed = false;
  database.pool().flush_dirty([&] { flushed = true; });
  pump(flushed);
  bool drained = false;
  trail.drain([&] { drained = true; });
  pump(drained);
  trail.unmount();
  std::printf("shut down cleanly (%llu keys indexed)\n",
              static_cast<unsigned long long>(index.size()));
  return 0;
}
