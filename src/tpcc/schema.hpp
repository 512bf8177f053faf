// TPC-C schema: the nine tables, fixed-size row structs, key encodings,
// and the scale parameters (w = 1 in the paper's runs; row counts can be
// scaled down for fast CI while keeping the access skew intact).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "db/types.hpp"

namespace trail::tpcc {

// ---- scale -----------------------------------------------------------------

struct Scale {
  std::uint32_t warehouses = 1;
  std::uint32_t districts_per_warehouse = 10;
  std::uint32_t customers_per_district = 3000;
  std::uint32_t items = 100'000;
  /// Initial orders per district (also seeds NEW-ORDER backlog).
  std::uint32_t initial_orders_per_district = 3000;

  /// Proportionally smaller dataset (>= 1 row everywhere), same shape.
  [[nodiscard]] static Scale reduced(double factor) {
    Scale s;
    auto shrink = [factor](std::uint32_t v) {
      const auto r = static_cast<std::uint32_t>(v * factor);
      return r == 0 ? 1u : r;
    };
    s.customers_per_district = shrink(s.customers_per_district);
    s.items = shrink(s.items);
    s.initial_orders_per_district = shrink(s.initial_orders_per_district);
    return s;
  }
};

// ---- rows ------------------------------------------------------------------
// Sizes approximate the TPC-C clause 1.3 row widths so page, WAL and log
// traffic volumes are realistic. All rows are trivially copyable.

struct WarehouseRow {
  std::uint32_t w_id = 0;
  double tax = 0;
  double ytd = 0;
  std::array<char, 10> name{};
  std::array<char, 60> address{};
};

struct DistrictRow {
  std::uint32_t w_id = 0;
  std::uint32_t d_id = 0;
  std::uint32_t next_o_id = 1;
  double tax = 0;
  double ytd = 0;
  std::array<char, 10> name{};
  std::array<char, 60> address{};
};

struct CustomerRow {
  std::uint32_t w_id = 0;
  std::uint32_t d_id = 0;
  std::uint32_t c_id = 0;
  double credit_lim = 50'000;
  double discount = 0;
  double balance = -10;
  double ytd_payment = 10;
  std::uint32_t payment_cnt = 1;
  std::uint32_t delivery_cnt = 0;
  std::array<char, 16> last{};
  std::array<char, 16> first{};
  std::array<char, 2> credit{};  // "GC"/"BC"
  std::array<char, 60> address{};
  std::array<char, 400> data{};  // clause 1.3: C_DATA is 300-500 chars
};

struct OrderRow {
  std::uint32_t w_id = 0, d_id = 0, o_id = 0;
  std::uint32_t c_id = 0;
  std::int64_t entry_d = 0;  // virtual time (ns)
  std::uint32_t carrier_id = 0;  // 0 = not delivered
  std::uint32_t ol_cnt = 0;
  std::uint32_t all_local = 1;
};

struct NewOrderRow {
  std::uint32_t w_id = 0, d_id = 0, o_id = 0;
};

struct OrderLineRow {
  std::uint32_t w_id = 0, d_id = 0, o_id = 0, ol_number = 0;
  std::uint32_t i_id = 0;
  std::uint32_t supply_w_id = 0;
  std::int64_t delivery_d = 0;  // 0 = pending
  std::uint32_t quantity = 5;
  double amount = 0;
  std::array<char, 24> dist_info{};
};

struct ItemRow {
  std::uint32_t i_id = 0;
  std::uint32_t im_id = 0;
  double price = 0;
  std::array<char, 24> name{};
  std::array<char, 50> data{};
};

struct StockRow {
  std::uint32_t w_id = 0;
  std::uint32_t i_id = 0;
  std::uint32_t quantity = 0;
  std::uint32_t ytd = 0;
  std::uint32_t order_cnt = 0;
  std::uint32_t remote_cnt = 0;
  std::array<std::array<char, 24>, 10> dist{};  // S_DIST_01..10
  std::array<char, 50> data{};
};

struct HistoryRow {
  std::uint32_t w_id = 0, d_id = 0, c_id = 0;
  std::int64_t date = 0;
  double amount = 0;
  std::array<char, 24> data{};
};

static_assert(std::is_trivially_copyable_v<CustomerRow>);
static_assert(std::is_trivially_copyable_v<StockRow>);

// ---- row <-> row bytes -----------------------------------------------------

/// The row's bytes, viewed in place: valid while `r` is.
template <typename Row>
db::RowView to_row(const Row& r) {
  return {reinterpret_cast<const std::byte*>(&r), sizeof(Row)};
}

template <typename Row>
Row from_row(db::RowView buf) {
  Row r;
  std::memcpy(&r, buf.data(), sizeof(Row));
  return r;
}

// ---- key encodings ----------------------------------------------------------
// Composite keys packed into 64 bits; component widths are asserted.

inline db::Key wd_key(std::uint32_t w, std::uint32_t d) {
  return static_cast<db::Key>(w) * 100 + d;  // d in [1,10]
}
inline db::Key warehouse_key(std::uint32_t w) { return w; }
inline db::Key district_key(std::uint32_t w, std::uint32_t d) { return wd_key(w, d); }
inline db::Key customer_key(std::uint32_t w, std::uint32_t d, std::uint32_t c) {
  return wd_key(w, d) << 32 | c;
}
inline db::Key order_key(std::uint32_t w, std::uint32_t d, std::uint32_t o) {
  return wd_key(w, d) << 32 | o;
}
inline db::Key new_order_key(std::uint32_t w, std::uint32_t d, std::uint32_t o) {
  return order_key(w, d, o);
}
inline db::Key order_line_key(std::uint32_t w, std::uint32_t d, std::uint32_t o,
                              std::uint32_t ol) {
  // o fits in 28 bits (hundreds of millions of orders), ol in 4.
  return (wd_key(w, d) << 32 | o) << 4 | (ol & 0xF);
}
inline db::Key item_key(std::uint32_t i) { return i; }
inline db::Key stock_key(std::uint32_t w, std::uint32_t i) {
  return static_cast<db::Key>(w) << 32 | i;
}

/// The table set, in creation order (creation order defines TableId).
enum TableIndex : std::size_t {
  kWarehouse = 0,
  kDistrict,
  kCustomer,
  kOrder,
  kNewOrder,
  kOrderLine,
  kItem,
  kStock,
  kHistory,
  kTableCount,
};

}  // namespace trail::tpcc
