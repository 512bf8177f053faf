// The five TPC-C transactions (clause 2) implemented against the
// transaction engine in continuation-passing style.
//
// Inputs follow clause 2's generation rules (NURand for customers and
// items, 1% intentional rollback for NEW-ORDER, 60% by-last-name for
// PAYMENT/ORDER-STATUS). The standard mix is NEW-ORDER 45%, PAYMENT 43%,
// ORDER-STATUS 4%, DELIVERY 4%, STOCK-LEVEL 4%.
#pragma once

#include "sim/callback.hpp"
#include "sim/random.hpp"
#include "tpcc/workload.hpp"

namespace trail::tpcc {

enum class TxnType { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel };

/// Pick a transaction type according to the standard mix.
[[nodiscard]] TxnType pick_txn_type(sim::Rng& rng);

struct TxnResult {
  TxnType type = TxnType::kNewOrder;
  bool committed = false;
  bool user_abort = false;  // NEW-ORDER's intentional 1% rollback
};

/// Runs TPC-C transactions against a TpccDatabase. One runner per client.
class TxnRunner {
 public:
  TxnRunner(TpccDatabase& tpcc, sim::Rng rng) : tpcc_(tpcc), rng_(rng) {}

  using Done = sim::Callback<void(TxnResult)>;

  /// Execute one transaction of the given type end-to-end (begin ..
  /// commit/abort). `done` receives the outcome.
  void run(TxnType type, Done done);

  /// Execute one transaction drawn from the standard mix.
  void run_mixed(Done done) { run(pick_txn_type(rng_), std::move(done)); }

  [[nodiscard]] sim::Rng& rng() { return rng_; }

 private:
  void new_order(Done done);
  void payment(Done done);
  void order_status(Done done);
  void delivery(Done done);
  void stock_level(Done done);

  /// Abort helper: rolls back and reports.
  void fail(db::Txn& txn, TxnType type, Done done, bool user_abort = false);

  std::uint32_t random_warehouse() {
    return static_cast<std::uint32_t>(rng_.uniform(1, tpcc_.scale().warehouses));
  }
  std::uint32_t random_district() {
    return static_cast<std::uint32_t>(
        rng_.uniform(1, tpcc_.scale().districts_per_warehouse));
  }
  std::uint32_t nurand_customer() {
    return static_cast<std::uint32_t>(sim::nurand(
        rng_, 1023, 1, tpcc_.scale().customers_per_district, tpcc_.nurand_c().c_id));
  }
  std::uint32_t nurand_item() {
    return static_cast<std::uint32_t>(
        sim::nurand(rng_, 8191, 1, tpcc_.scale().items, tpcc_.nurand_c().ol_i_id));
  }

  // Table-id shorthands.
  [[nodiscard]] db::TableId t_warehouse() const { return tpcc_.table(kWarehouse); }
  [[nodiscard]] db::TableId t_district() const { return tpcc_.table(kDistrict); }
  [[nodiscard]] db::TableId t_customer() const { return tpcc_.table(kCustomer); }
  [[nodiscard]] db::TableId t_order() const { return tpcc_.table(kOrder); }
  [[nodiscard]] db::TableId t_new_order() const { return tpcc_.table(kNewOrder); }
  [[nodiscard]] db::TableId t_order_line() const { return tpcc_.table(kOrderLine); }
  [[nodiscard]] db::TableId t_item() const { return tpcc_.table(kItem); }
  [[nodiscard]] db::TableId t_stock() const { return tpcc_.table(kStock); }
  [[nodiscard]] db::TableId t_history() const { return tpcc_.table(kHistory); }

  TpccDatabase& tpcc_;
  sim::Rng rng_;
};

}  // namespace trail::tpcc
