// kv_store: a tiny durable key-value store built on the embedded
// transaction engine, showing the end-user effect of swapping the block
// driver underneath an *unchanged* application: every `put` is a durable
// transaction; on Trail its commit costs ~1.5 ms, on a bare disk ~10-17 ms.
//
// Usage: kv_store [trail|standard]   (default: runs both and compares)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "db/database.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace trail;

namespace {

/// A string key-value API over one table: keys are hashed to row keys,
/// values stored in fixed 256-byte rows (val_len + bytes).
class KvStore {
 public:
  static constexpr std::uint32_t kRowSize = 256;

  KvStore(db::Database& database, io::DeviceId device)
      : db_(database), table_(database.create_table("kv", kRowSize, 10'000, device)) {}

  void put(const std::string& key, const std::string& value, std::function<void(bool)> done) {
    db::RowBuf row(kRowSize, std::byte{0});
    const auto len = static_cast<std::uint16_t>(std::min<std::size_t>(value.size(), kRowSize - 2));
    row[0] = std::byte(len & 0xFF);
    row[1] = std::byte(len >> 8);
    std::memcpy(row.data() + 2, value.data(), len);
    db::Txn& txn = db_.begin();
    txn.update(table_, hash(key), std::move(row), [this, &txn, done](bool ok) {
      if (!ok) {
        db_.abort(txn, [done] { done(false); });
        return;
      }
      db_.commit(txn, [done](bool committed) { done(committed); });
    });
  }

  void get(const std::string& key, std::function<void(bool, std::string)> done) {
    db::Txn& txn = db_.begin();
    txn.get(table_, hash(key), [this, &txn, done](bool found, db::RowView row) {
      std::string value;
      if (found) {
        const std::size_t len = static_cast<std::size_t>(row[0]) |
                                static_cast<std::size_t>(row[1]) << 8;
        value.assign(reinterpret_cast<const char*>(row.data()) + 2, len);
      }
      db_.commit(txn, [found, value, done](bool) { done(found, value); });
    });
  }

 private:
  static db::Key hash(const std::string& key) {
    db::Key h = 1469598103934665603ULL;
    for (char c : key) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
  }
  db::Database& db_;
  db::TableId table_;
};

double run_workload(bool use_trail) {
  sim::Simulator simulator;
  disk::DiskDevice log_disk(simulator, disk::st41601n());
  disk::DiskDevice data_disk(simulator, disk::wd_caviar_10g());

  std::unique_ptr<core::TrailDriver> trail_driver;
  std::unique_ptr<io::StandardDriver> std_driver;
  io::BlockDriver* block = nullptr;
  io::DeviceId dev;
  if (use_trail) {
    core::format_log_disk(log_disk);
    trail_driver = std::make_unique<core::TrailDriver>(simulator, log_disk);
    dev = trail_driver->add_data_disk(data_disk);
    trail_driver->mount();
    block = trail_driver.get();
  } else {
    std_driver = std::make_unique<io::StandardDriver>();
    dev = std_driver->add_device(data_disk);
    block = std_driver.get();
  }

  db::DbConfig cfg;
  cfg.log_region_sectors = 32'768;
  db::Database database(simulator, *block, dev, cfg);
  database.attach_device(dev, data_disk);
  KvStore kv(database, dev);

  // 200 durable puts, then read a few back.
  sim::Rng rng(1);
  const sim::TimePoint t0 = simulator.now();
  for (int i = 0; i < 200; ++i) {
    bool done = false;
    kv.put("user:" + std::to_string(i), "value-" + std::to_string(rng.next() % 100000),
           [&](bool ok) {
             if (!ok) std::printf("put failed!\n");
             done = true;
           });
    while (!done) simulator.step();
  }
  const double per_put_ms = (simulator.now() - t0).ms() / 200.0;

  bool checked = false;
  kv.get("user:123", [&](bool found, std::string value) {
    std::printf("  get(user:123) -> %s%s\n", found ? "hit: " : "miss",
                found ? value.c_str() : "");
    checked = true;
  });
  while (!checked) simulator.step();

  if (trail_driver) trail_driver->unmount();
  return per_put_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "both";
  double trail_ms = 0, std_ms = 0;
  if (mode == "trail" || mode == "both") {
    std::printf("KV store on Trail:\n");
    trail_ms = run_workload(true);
    std::printf("  durable put: %.2f ms average\n", trail_ms);
  }
  if (mode == "standard" || mode == "both") {
    std::printf("KV store on the standard disk subsystem:\n");
    std_ms = run_workload(false);
    std::printf("  durable put: %.2f ms average\n", std_ms);
  }
  if (mode == "both")
    std::printf("\nTrail speedup for durable puts: %.1fx\n", std_ms / trail_ms);
  return 0;
}
