// TpccDatabase: schema creation, dataset population, and the auxiliary
// in-memory access paths (customer-by-last-name, undelivered-order
// queues, newest-order-per-customer) that a full SQL system would keep as
// secondary indexes. The auxiliary structures can be rebuilt from the
// tables after a crash.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "db/btree.hpp"
#include "db/database.hpp"
#include "sim/random.hpp"
#include "tpcc/schema.hpp"

namespace trail::tpcc {

/// NURand C constants, fixed per database generation (clause 2.1.6).
struct NurandC {
  std::int64_t c_last = 123;
  std::int64_t c_id = 259;
  std::int64_t ol_i_id = 4321;
};

class TpccDatabase {
 public:
  /// Creates the nine tables: ITEM + STOCK on `item_device`, everything
  /// else on `main_device` (the paper splits tables across two data
  /// disks; the log file device is the Database's log device).
  TpccDatabase(db::Database& database, const Scale& scale, io::DeviceId main_device,
               io::DeviceId item_device);

  /// Offline population per clause 4.3 (shape, not full text fidelity).
  void populate(sim::Rng& rng);

  /// Rebuild auxiliary in-memory access paths from the tables (after
  /// recovery).
  void rebuild_aux_indexes();

  [[nodiscard]] db::Database& database() { return db_; }
  [[nodiscard]] const Scale& scale() const { return scale_; }
  [[nodiscard]] const NurandC& nurand_c() const { return c_; }
  [[nodiscard]] db::TableId table(TableIndex t) const { return ids_[t]; }

  // ---- auxiliary access paths ----
  /// Customers sharing a last name, ascending c_id, via the disk-backed
  /// secondary index (clause 2.5.2.2 picks the middle one). Costs real
  /// index-page I/O, like Berkeley DB's by-name B-tree lookups.
  void lookup_by_last_name(std::uint32_t w, std::uint32_t d, const std::string& last,
                           sim::Callback<void(std::vector<std::uint32_t>)> cb);
  [[nodiscard]] std::uint32_t last_order_of(std::uint32_t w, std::uint32_t d,
                                            std::uint32_t c) const;
  void note_new_order(std::uint32_t w, std::uint32_t d, std::uint32_t c, std::uint32_t o);
  /// Oldest undelivered order of the district, 0 if none. pop => consume.
  std::uint32_t oldest_new_order(std::uint32_t w, std::uint32_t d, bool pop);
  void unpop_new_order(std::uint32_t w, std::uint32_t d, std::uint32_t o);  // aborted delivery

  /// TPC-C last-name syllable generator (clause 4.3.2.3).
  static std::string last_name(std::int64_t num);

  // ---- consistency checks (tests / post-crash validation) ----
  /// Verifies W_YTD == sum of D_YTD for each warehouse and that order /
  /// order-line counts are coherent. Drives the simulator.
  struct ConsistencyReport {
    bool ok = true;
    std::string detail;
  };
  ConsistencyReport check_consistency(sim::Simulator& sim);

 private:
  db::Database& db_;
  Scale scale_;
  NurandC c_;
  std::array<db::TableId, kTableCount> ids_{};

  /// (wd, last-name-hash, c_id) packed into the index key.
  [[nodiscard]] static db::Key name_index_key(std::uint32_t w, std::uint32_t d,
                                              const std::string& last, std::uint32_t c);
  void build_name_index();

  std::unique_ptr<db::PageFile> name_index_file_;
  std::unique_ptr<db::BTree> name_index_;
  std::map<std::uint64_t, std::uint32_t> last_order_;          // customer key -> o_id
  std::map<std::uint64_t, std::deque<std::uint32_t>> backlog_;  // wd key -> o_ids
};

}  // namespace trail::tpcc
