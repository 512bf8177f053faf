#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/format_tool.hpp"
#include "core/trail_driver.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "tpcc/driver.hpp"
#include "trail_fixture.hpp"

namespace trail::tpcc {
namespace {

/// A scaled-down TPC-C over the standard driver on WD-class data disks
/// (fast enough for unit testing; the benches run closer to paper scale).
class TpccTest : public ::testing::Test {
 protected:
  static constexpr double kScaleFactor = 0.02;  // 60 customers, 2k items

  void open(db::DbConfig cfg = db::DbConfig{}) {
    fresh_disks();
    driver = std::make_unique<io::StandardDriver>();
    log_id = driver->add_device(*log_dev);
    main_id = driver->add_device(*main_dev);
    item_id = driver->add_device(*item_dev);
    make_database(*driver, cfg);
  }

  /// The same rig behind the Trail driver, with an ST41601N log disk.
  void open_on_trail(db::DbConfig cfg = db::DbConfig{}) {
    fresh_disks();
    trail_log = std::make_unique<disk::DiskDevice>(*sim, disk::st41601n());
    core::format_log_disk(*trail_log);
    mount_trail();
    make_database(*trail, cfg);
  }

  /// Build a TrailDriver over the rig's disks and mount it (recovering,
  /// after a power cut).
  void mount_trail(core::TrailConfig tc = {}) {
    trail = std::make_unique<core::TrailDriver>(*sim, *trail_log, tc);
    log_id = trail->add_data_disk(*log_dev);
    main_id = trail->add_data_disk(*main_dev);
    item_id = trail->add_data_disk(*item_dev);
    trail->mount();
  }

  void populate(std::uint64_t seed = 1) {
    sim::Rng rng(seed);
    tpcc->populate(rng);
  }

  /// Host crash: drop the database's memory, let the writes the driver
  /// had accepted land, then reopen on the same disks and recover.
  db::Database::RecoveryReport crash_and_recover() {
    tpcc.reset();
    database.reset();
    sim->run();
    make_database(*driver, db::DbConfig{});
    const auto report = database->recover();
    tpcc->rebuild_aux_indexes();
    return report;
  }

  void drain_trail() {
    bool drained = false;
    trail->drain([&] { drained = true; });
    while (!drained) ASSERT_TRUE(sim->step());
    trail->unmount();
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<disk::DiskDevice> trail_log, log_dev, main_dev, item_dev;
  std::unique_ptr<io::StandardDriver> driver;
  std::unique_ptr<core::TrailDriver> trail;
  io::DeviceId log_id, main_id, item_id;
  std::unique_ptr<db::Database> database;
  std::unique_ptr<TpccDatabase> tpcc;

  void make_database(io::BlockDriver& block, db::DbConfig cfg) {
    cfg.buffer_pool_pages = 256;
    database = std::make_unique<db::Database>(*sim, block, log_id, cfg);
    database->attach_device(log_id, *log_dev);
    database->attach_device(main_id, *main_dev);
    database->attach_device(item_id, *item_dev);
    tpcc = std::make_unique<TpccDatabase>(*database, Scale::reduced(kScaleFactor), main_id,
                                          item_id);
  }

 private:
  /// Tear down the previous rig, newest parts first, then start a new
  /// simulator with three WD-class data disks.
  void fresh_disks() {
    tpcc.reset();
    database.reset();
    trail.reset();
    driver.reset();
    trail_log.reset();
    item_dev.reset();
    main_dev.reset();
    log_dev.reset();
    sim = std::make_unique<sim::Simulator>();
    log_dev = std::make_unique<disk::DiskDevice>(*sim, disk::wd_caviar_10g());
    main_dev = std::make_unique<disk::DiskDevice>(*sim, disk::wd_caviar_10g());
    item_dev = std::make_unique<disk::DiskDevice>(*sim, disk::wd_caviar_10g());
  }
};

TEST_F(TpccTest, LastNameSyllables) {
  EXPECT_EQ(TpccDatabase::last_name(0), "BARBARBAR");
  EXPECT_EQ(TpccDatabase::last_name(371), "PRICALLYOUGHT");
  EXPECT_EQ(TpccDatabase::last_name(999), "EINGEINGEING");
}

TEST_F(TpccTest, MixMatchesStandardPercentages) {
  sim::Rng rng(7);
  std::map<TxnType, int> counts;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[pick_txn_type(rng)];
  EXPECT_NEAR(counts[TxnType::kNewOrder] / double(n), 0.45, 0.01);
  EXPECT_NEAR(counts[TxnType::kPayment] / double(n), 0.43, 0.01);
  EXPECT_NEAR(counts[TxnType::kOrderStatus] / double(n), 0.04, 0.005);
  EXPECT_NEAR(counts[TxnType::kDelivery] / double(n), 0.04, 0.005);
  EXPECT_NEAR(counts[TxnType::kStockLevel] / double(n), 0.04, 0.005);
}

TEST_F(TpccTest, PopulationCountsAndConsistency) {
  open();
  populate();
  const Scale& s = tpcc->scale();
  EXPECT_EQ(database->table_named("warehouse").row_count(), 1u);
  EXPECT_EQ(database->table_named("district").row_count(), 10u);
  EXPECT_EQ(database->table_named("customer").row_count(),
            static_cast<std::uint64_t>(s.customers_per_district) * 10);
  EXPECT_EQ(database->table_named("item").row_count(), s.items);
  EXPECT_EQ(database->table_named("stock").row_count(), s.items);
  EXPECT_EQ(database->table_named("orders").row_count(),
            static_cast<std::uint64_t>(s.initial_orders_per_district) * 10);
  EXPECT_GT(database->table_named("new_order").row_count(), 0u);

  auto report = tpcc->check_consistency(*sim);
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST_F(TpccTest, NameIndexResolvesCustomers) {
  open();
  populate();
  // Scaled run: 60 customers per district, all with deterministic
  // distinct last names last_name(c-1). The index must return exactly
  // the matching customer.
  auto lookup = [&](std::uint32_t d, const std::string& last) {
    std::vector<std::uint32_t> out;
    bool done = false;
    tpcc->lookup_by_last_name(1, d, last, [&](std::vector<std::uint32_t> ids) {
      out = std::move(ids);
      done = true;
    });
    while (!done) {
      if (!sim->step()) {
        ADD_FAILURE() << "stalled";
        break;
      }
    }
    return out;
  };
  EXPECT_EQ(lookup(1, TpccDatabase::last_name(0)), std::vector<std::uint32_t>{1});
  EXPECT_EQ(lookup(3, TpccDatabase::last_name(41)), std::vector<std::uint32_t>{42});
  EXPECT_TRUE(lookup(1, TpccDatabase::last_name(999)).empty())
      << "names beyond the scaled customer count must miss";
  // The index survives the aux rebuild (crash path).
  tpcc->rebuild_aux_indexes();
  EXPECT_EQ(lookup(2, TpccDatabase::last_name(7)), std::vector<std::uint32_t>{8});
}

TEST_F(TpccTest, SingleClientRunsTransactionsToCompletion) {
  open();
  populate();
  Driver bench(*tpcc, /*concurrency=*/1, sim::Rng(99));
  const BenchResult result = bench.run(120);
  EXPECT_EQ(result.committed + result.aborted + result.user_aborts, 120u);
  EXPECT_GT(result.committed, 100u);
  EXPECT_GT(result.new_order_commits, 20u);
  EXPECT_GT(result.tpmc(), 0.0);
  EXPECT_GT(result.response.mean_ms(), 0.0);

  auto report = tpcc->check_consistency(*sim);
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST_F(TpccTest, ConcurrentClientsKeepInvariants) {
  open();
  populate();
  Driver bench(*tpcc, /*concurrency=*/4, sim::Rng(5));
  const BenchResult result = bench.run(200);
  EXPECT_GT(result.committed, 150u);
  auto report = tpcc->check_consistency(*sim);
  EXPECT_TRUE(report.ok) << report.detail;
  // With real concurrency the wall time should beat 4x the serial rate...
  // at minimum, it must make progress and leave no locks behind.
  EXPECT_EQ(database->locks().held_locks(), 0u);
}

TEST_F(TpccTest, GroupCommitFlushesLessOften) {
  db::DbConfig cfg;
  cfg.group_commit = true;
  cfg.log_buffer_bytes = 50 * 1024;
  open(cfg);
  populate();
  Driver bench(*tpcc, 4, sim::Rng(5));
  (void)bench.run(150);
  const auto gc_flushes = database->wal().stats().flushes;

  open();  // sync-commit mode
  populate();
  Driver bench2(*tpcc, 4, sim::Rng(5));
  (void)bench2.run(150);
  const auto sync_flushes = database->wal().stats().flushes;

  EXPECT_LT(gc_flushes, sync_flushes / 5)
      << "group commit must batch many commits per flush";
}

TEST_F(TpccTest, RunsOnTrailDriver) {
  // End-to-end: TPC-C over the Trail block driver.
  open_on_trail();
  populate();

  Driver bench(*tpcc, 2, sim::Rng(11));
  const BenchResult result = bench.run(150);
  EXPECT_GT(result.committed, 120u);
  auto report = tpcc->check_consistency(*sim);
  EXPECT_TRUE(report.ok) << report.detail;
  drain_trail();
}

TEST_F(TpccTest, DbRecoveryPreservesCommittedTpccState) {
  open();
  populate();
  Driver bench(*tpcc, 2, sim::Rng(3));
  (void)bench.run(80);
  // Force WAL durability of everything committed so far, then "crash" the
  // host, reopen, recover, re-check invariants.
  bool flushed = false;
  database->wal().flush_all([&] { flushed = true; });
  while (!flushed) ASSERT_TRUE(sim->step());
  const auto report = crash_and_recover();
  EXPECT_GT(report.records_scanned, 0u);

  auto consistency = tpcc->check_consistency(*sim);
  EXPECT_TRUE(consistency.ok) << consistency.detail;
  // And the workload can continue.
  Driver bench2(*tpcc, 2, sim::Rng(4));
  const BenchResult r2 = bench2.run(40);
  EXPECT_GT(r2.committed, 20u);
}

TEST_F(TpccTest, RecoveryFromFrequentCheckpointsKeepsCommittedState) {
  // Checkpoints every 64 KiB of log run while four clients hold pages
  // pinned and dirty more; each one's replay point must still cover every
  // committed change that is not on disk.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    db::DbConfig cfg;
    cfg.checkpoint_every_bytes = 64 * 1024;
    open(cfg);
    populate();
    Driver bench(*tpcc, 4, sim::Rng(seed));
    (void)bench.run(400);
    ASSERT_GT(database->pool().stats().checkpoint_writes, 0u);
    bool flushed = false;
    database->wal().flush_all([&] { flushed = true; });
    while (!flushed) ASSERT_TRUE(sim->step());
    (void)crash_and_recover();
    auto consistency = tpcc->check_consistency(*sim);
    EXPECT_TRUE(consistency.ok) << consistency.detail;
  }
}

TEST_F(TpccTest, CheckpointsDoNotStallCommitsOnTrail) {
  // A checkpoint's page writes share Trail's FIFO log queue with commits;
  // its bounded window keeps the worst commit wait near the
  // checkpoint-free run's.
  auto max_commit_wait = [&](std::uint64_t checkpoint_every_bytes) {
    db::DbConfig cfg;
    cfg.checkpoint_every_bytes = checkpoint_every_bytes;
    open_on_trail(cfg);
    populate();
    obs::Obs obs(*sim);
    database->wal().attach_obs(&obs);
    Driver bench(*tpcc, 4, sim::Rng(11));
    (void)bench.run(600);
    database->wal().attach_obs(nullptr);
    return obs.metrics.histogram("wal.commit_wait_ns").max();
  };
  const std::int64_t without = max_commit_wait(0);
  const std::int64_t with = max_commit_wait(64 * 1024);
  RecordProperty("max_commit_wait_us_without", static_cast<int>(without / 1000));
  RecordProperty("max_commit_wait_us_with", static_cast<int>(with / 1000));
  EXPECT_GT(database->pool().stats().checkpoint_writes, 0u);
  EXPECT_GT(without, 0);
  EXPECT_LE(with, 2 * without) << "max commit wait " << with / 1e6 << " ms with checkpoints, "
                               << without / 1e6 << " ms without";
}

}  // namespace
}  // namespace trail::tpcc

namespace trail::tpcc {
namespace {

TEST_F(TpccTest, GroupCommitOverTrailIsValid) {
  // Group commit layered ON Trail: legal, just redundant — the paper's
  // point is that Trail makes it unnecessary. Invariants must still hold.
  db::DbConfig cfg;
  cfg.group_commit = true;
  cfg.log_buffer_bytes = 20 * 1024;
  open_on_trail(cfg);
  populate();
  Driver bench(*tpcc, 3, sim::Rng(9));
  const BenchResult result = bench.run(150);
  EXPECT_GT(result.committed, 120u);
  EXPECT_LT(database->wal().stats().flushes, 60u) << "group commit must batch";
  auto report = tpcc->check_consistency(*sim);
  EXPECT_TRUE(report.ok) << report.detail;
  drain_trail();
}

}  // namespace
}  // namespace trail::tpcc

namespace trail::tpcc {
namespace {

/// Power cuts under TPC-C on Trail (DESIGN.md §5 invariant 7). Four
/// closed-loop clients run with a checkpoint every 64 KiB of log, and the
/// power is cut at one point from 50 to 3,000 ms after population, in
/// 50 ms steps. Trail mounts under one recovery policy, the database
/// recovers through it, and the TPC-C invariants must hold. A count
/// oracle checks the acked commits: orders rows lie in [populated + acked
/// NEW-ORDERs, that + 4], history rows in [populated + acked PAYMENTs,
/// that + 4], since each client may have one commit durable but not yet
/// acked. A case is then replayed with a second cut inside recover(), 5,
/// 20, 80 and 300 ms before it would end (in its flush, its redo or its
/// reads), and the stack must mount and recover from that as well.
/// ctest runs every 4th first cut and replays three of them (650, 1,450
/// and 2,250 ms) with second cuts; TRAIL_CRASH_SWEEP=full runs all 60
/// first cuts, each with its second cuts. The test properties record
/// the mount's and recover()'s virtual times after the first cut, and
/// the most tracks any mount's locate scanned, which may not pass
/// ⌈lg n⌉ + 2 on the n-track log ring.
class TpccPowerCut : public TpccTest {
 protected:
  static constexpr int kClients = 4;
  static constexpr int kSecondCutBeforeEndMs[] = {5, 20, 80, 300};

  /// Closed-loop clients. Their state outlives the cut: the transactions
  /// in flight then never complete, since the database's callbacks die
  /// with it.
  struct Clients {
    std::vector<std::unique_ptr<TxnRunner>> runners;
    std::vector<std::function<void()>> loops;
    std::uint64_t new_orders = 0;  // acked NEW-ORDER commits
    std::uint64_t payments = 0;    // acked PAYMENT commits
  };

  struct Tally {
    int cases = 0;
    int second_cuts = 0;  // second cuts that landed inside recover()
    std::vector<double> mount_ms, recover_ms;  // virtual time per first-cut case
    std::uint32_t max_scanned = 0;             // locate's track scans, most in one mount
    std::vector<std::string> failures;
  };

  static void start(Clients& clients, TpccDatabase& db) {
    sim::Rng seeds(17);
    for (int i = 0; i < kClients; ++i) {
      clients.runners.push_back(std::make_unique<TxnRunner>(db, seeds.split()));
      TxnRunner* runner = clients.runners.back().get();
      clients.loops.emplace_back([&clients, runner, i] {
        runner->run_mixed([&clients, i](TxnResult r) {
          if (r.committed && r.type == TxnType::kNewOrder) ++clients.new_orders;
          if (r.committed && r.type == TxnType::kPayment) ++clients.payments;
          clients.loops[static_cast<std::size_t>(i)]();
        });
      });
    }
    for (auto& loop : clients.loops) loop();
  }

  /// Everything in memory dies; the platters keep what they hold.
  void cut_power() {
    trail->crash();
    tpcc.reset();
    database.reset();
    trail.reset();
    for (disk::DiskDevice* d : {trail_log.get(), log_dev.get(), main_dev.get(), item_dev.get()})
      d->restart();
  }

  /// One case; returns recover()'s end as an offset from the first
  /// power-on, if it got there. With `second_cut`, power is cut again at
  /// that offset, and the stack mounts and recovers once more.
  std::optional<sim::Duration> run_case(bool write_back, int cut_ms,
                                        std::optional<sim::Duration> second_cut, Tally& tally) {
    ++tally.cases;
    Clients clients;
    db::DbConfig cfg;
    cfg.checkpoint_every_bytes = 64 * 1024;
    open_on_trail(cfg);
    populate();
    const std::uint64_t orders = database->table_named("orders").row_count();
    const std::uint64_t history = database->table_named("history").row_count();
    start(clients, *tpcc);
    sim->run_until(sim->now() + sim::millis(cut_ms));
    cut_power();

    std::string failure;
    core::TrailConfig tc;
    tc.recovery_write_back = write_back;
    const sim::TimePoint power_on = sim->now();
    std::optional<sim::Duration> recovered;
    try {
      if (second_cut) {
        // The cut halts every disk, so recover()'s next read never
        // completes and it throws once the simulator runs dry.
        mount_trail(tc);
        tally.max_scanned = std::max(tally.max_scanned, trail->last_recovery().tracks_scanned);
        make_database(*trail, cfg);
        const sim::EventId cut = sim->schedule_at(power_on + *second_cut, [this] { trail->crash(); });
        try {
          (void)database->recover();
          sim->cancel(cut);
        } catch (const std::runtime_error& e) {
          if (std::string(e.what()) != "Database::recover: simulation stalled") throw;
          ++tally.second_cuts;
        }
        cut_power();
      }
      const sim::TimePoint booted = sim->now();
      mount_trail(tc);
      const sim::TimePoint mounted = sim->now();
      tally.max_scanned = std::max(tally.max_scanned, trail->last_recovery().tracks_scanned);
      make_database(*trail, cfg);
      (void)database->recover();
      recovered = sim->now() - power_on;
      if (!second_cut) {
        tally.mount_ms.push_back((mounted - booted).ms());
        tally.recover_ms.push_back((sim->now() - mounted).ms());
      }
      tpcc->rebuild_aux_indexes();
      const auto consistency = tpcc->check_consistency(*sim);
      if (!consistency.ok) failure += " " + consistency.detail + ";";
      const auto in_range = [&](const char* table, std::uint64_t low) {
        const std::uint64_t rows = database->table_named(table).row_count();
        if (rows >= low && rows <= low + kClients) return;
        std::ostringstream out;
        out << ' ' << table << " has " << rows << " rows, acked commits need [" << low << ", "
            << low + kClients << "];";
        failure += out.str();
      };
      in_range("orders", orders + clients.new_orders);
      in_range("history", history + clients.payments);
    } catch (const std::exception& e) {
      failure += std::string(" threw: ") + e.what();
    }
    if (!failure.empty()) {
      std::ostringstream where;
      where << "cut at " << cut_ms << " ms";
      if (second_cut) where << ", again at " << second_cut->ms() << " ms after power-on";
      tally.failures.push_back(where.str() + ":" + failure);
    }
    return recovered;
  }

  void run_cuts(bool write_back) {
    const char* mode = std::getenv("TRAIL_CRASH_SWEEP");
    const int stride = mode != nullptr && std::string(mode) == "full" ? 1 : 4;
    Tally tally;
    for (int k = 0; 50 + 50 * k <= 3000; k += stride) {
      const int cut_ms = 50 + 50 * k;
      const auto recovered = run_case(write_back, cut_ms, std::nullopt, tally);
      if (!recovered || (k + stride) % (stride * stride) != 0) continue;
      for (const int before_end : kSecondCutBeforeEndMs)
        (void)run_case(write_back, cut_ms, *recovered - sim::millis(before_end), tally);
    }
    RecordProperty("cases", tally.cases);
    RecordProperty("second_cuts_inside_recover", tally.second_cuts);
    RecordProperty("failures", static_cast<int>(tally.failures.size()));
    RecordProperty("max_tracks_scanned", static_cast<int>(tally.max_scanned));
    const auto record = [](const std::string& name, std::vector<double> ms) {
      if (ms.empty()) return;
      std::ranges::sort(ms);
      char text[64];
      std::snprintf(text, sizeof text, "%.1f", ms[ms.size() / 2]);
      RecordProperty(name + "_median", text);
      std::snprintf(text, sizeof text, "%.1f", ms.back());
      RecordProperty(name + "_max", text);
    };
    record("mount_ms", tally.mount_ms);
    record("recover_ms", tally.recover_ms);
    std::string detail;
    for (std::size_t i = 0; i < std::min<std::size_t>(tally.failures.size(), 8); ++i)
      detail += "\n  " + tally.failures[i];
    EXPECT_TRUE(tally.failures.empty())
        << tally.failures.size() << " of " << tally.cases << " cases failed:" << detail;
    EXPECT_LE(tally.max_scanned, trail::testing::locate_scan_bound(disk::st41601n().geometry));
  }
};

TEST_F(TpccPowerCut, UnderWriteBack) { run_cuts(/*write_back=*/true); }

TEST_F(TpccPowerCut, UnderAdopt) { run_cuts(/*write_back=*/false); }

}  // namespace
}  // namespace trail::tpcc
