#include "tpcc/workload.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace trail::tpcc {

namespace {

void fill_text(std::span<char> dst, sim::Rng& rng, std::size_t min_len) {
  const std::size_t len =
      std::min(dst.size(), min_len + static_cast<std::size_t>(
                                         rng.uniform(0, static_cast<std::int64_t>(
                                                            dst.size() - min_len))));
  for (std::size_t i = 0; i < len; ++i)
    dst[i] = static_cast<char>('a' + rng.uniform(0, 25));
}

}  // namespace

std::string TpccDatabase::last_name(std::int64_t num) {
  static const char* kSyllables[] = {"BAR", "OUGHT", "ABLE", "PRI",   "PRES",
                                     "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  std::string out;
  out += kSyllables[num / 100 % 10];
  out += kSyllables[num / 10 % 10];
  out += kSyllables[num % 10];
  return out;
}

TpccDatabase::TpccDatabase(db::Database& database, const Scale& scale,
                           io::DeviceId main_device, io::DeviceId item_device)
    : db_(database), scale_(scale) {
  const auto w = scale_.warehouses;
  const auto d = scale_.districts_per_warehouse;
  const std::uint64_t orders =
      static_cast<std::uint64_t>(w) * d * scale_.initial_orders_per_district;
  // Capacity headroom: benchmark runs add orders beyond the initial load.
  const std::uint64_t order_cap = orders * 4 + 10'000;

  ids_[kWarehouse] = db_.create_table("warehouse", sizeof(WarehouseRow), w, main_device);
  ids_[kDistrict] =
      db_.create_table("district", sizeof(DistrictRow), static_cast<std::uint64_t>(w) * d,
                       main_device);
  ids_[kCustomer] = db_.create_table(
      "customer", sizeof(CustomerRow),
      static_cast<std::uint64_t>(w) * d * scale_.customers_per_district, main_device);
  ids_[kOrder] = db_.create_table("orders", sizeof(OrderRow), order_cap, main_device);
  ids_[kNewOrder] = db_.create_table("new_order", sizeof(NewOrderRow), order_cap, main_device);
  ids_[kOrderLine] =
      db_.create_table("order_line", sizeof(OrderLineRow), order_cap * 10, main_device);
  ids_[kItem] = db_.create_table("item", sizeof(ItemRow), scale_.items, item_device);
  ids_[kStock] = db_.create_table("stock", sizeof(StockRow),
                                  static_cast<std::uint64_t>(w) * scale_.items, item_device);
  ids_[kHistory] = db_.create_table("history", sizeof(HistoryRow), order_cap, main_device);

  // Secondary index: customers by last name, a disk-backed B-tree (the
  // access path Berkeley DB uses for the 60% by-name PAYMENT /
  // ORDER-STATUS lookups). One entry per customer; size the page file
  // with headroom.
  const std::uint64_t customers =
      static_cast<std::uint64_t>(w) * d * scale_.customers_per_district;
  const db::PageNo index_pages =
      static_cast<db::PageNo>(customers / db::BTree::kLeafCapacity * 2 + 16);
  const disk::Lba index_base = db_.allocate_region(
      "cust_name_idx", static_cast<std::uint64_t>(index_pages) * db::kSectorsPerPage,
      main_device);
  name_index_file_ = std::make_unique<db::PageFile>(
      db_.driver(), io::BlockAddr{main_device, index_base}, index_pages);
  const auto index_fid = db_.pool().register_file(*name_index_file_);
  // Bulk-loaded on the platter (rebuild_aux_indexes), like population.
  name_index_ = std::make_unique<db::BTree>(db_.pool(), index_fid, *name_index_file_,
                                            db_.offline_device(main_device));
}

db::Key TpccDatabase::name_index_key(std::uint32_t w, std::uint32_t d,
                                     const std::string& last, std::uint32_t c) {
  // FNV-1a over the name, truncated to 30 bits; c_id in the low 12 bits.
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : last) h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  return wd_key(w, d) << 42 | (h & 0x3FFFFFFFULL) << 12 | (c & 0xFFF);
}

void TpccDatabase::build_name_index() {
  std::vector<std::pair<db::Key, db::BTree::Value>> entries;
  db_.table(ids_[kCustomer]).for_each_key([this, &entries](db::Key key) {
    const auto wd = static_cast<std::uint32_t>(key >> 32);
    const auto c = static_cast<std::uint32_t>(key & 0xFFFFFFFF);
    // Deterministic last names exist only for c <= 1000 (clause 4.3.2.3),
    // which are the only ones NURand(255) by-name lookups can produce.
    if (c > 1000) return;
    const std::uint32_t w = wd / 100, d = wd % 100;
    entries.emplace_back(
        name_index_key(w, d, last_name(static_cast<std::int64_t>(c - 1)), c), c);
  });
  std::sort(entries.begin(), entries.end());
  name_index_->bulk_load_offline(entries);
}

void TpccDatabase::lookup_by_last_name(std::uint32_t w, std::uint32_t d,
                                       const std::string& last,
                                       sim::Callback<void(std::vector<std::uint32_t>)> cb) {
  const db::Key lo = name_index_key(w, d, last, 0);
  const db::Key hi = lo | 0xFFF;
  auto hits = std::make_shared<std::vector<std::uint32_t>>();
  name_index_->scan(
      lo, hi,
      [hits](db::Key, db::BTree::Value c) {
        hits->push_back(static_cast<std::uint32_t>(c));
        return true;
      },
      [hits, cb = std::move(cb)] { cb(std::move(*hits)); });
}

void TpccDatabase::populate(sim::Rng& rng) {
  for (std::uint32_t w = 1; w <= scale_.warehouses; ++w) {
    WarehouseRow wr;
    wr.w_id = w;
    wr.tax = rng.uniform(0, 2000) / 10000.0;
    wr.ytd = 300'000.0;
    fill_text(std::span<char>(wr.name.data(), wr.name.size()), rng, 6);
    fill_text(std::span<char>(wr.address.data(), wr.address.size()), rng, 10);
    db_.table(ids_[kWarehouse]).load_row_offline(warehouse_key(w), to_row(wr));

    for (std::uint32_t i = 1; i <= scale_.items; ++i) {
      if (w > 1) break;  // items are global
      ItemRow ir;
      ir.i_id = i;
      ir.im_id = static_cast<std::uint32_t>(rng.uniform(1, 10'000));
      ir.price = rng.uniform(100, 10'000) / 100.0;
      fill_text(std::span<char>(ir.name.data(), ir.name.size()), rng, 14);
      fill_text(std::span<char>(ir.data.data(), ir.data.size()), rng, 26);
      db_.table(ids_[kItem]).load_row_offline(item_key(i), to_row(ir));
    }

    for (std::uint32_t i = 1; i <= scale_.items; ++i) {
      StockRow sr;
      sr.w_id = w;
      sr.i_id = i;
      sr.quantity = static_cast<std::uint32_t>(rng.uniform(10, 100));
      for (auto& dist : sr.dist)
        fill_text(std::span<char>(dist.data(), dist.size()), rng, 24);
      fill_text(std::span<char>(sr.data.data(), sr.data.size()), rng, 26);
      db_.table(ids_[kStock]).load_row_offline(stock_key(w, i), to_row(sr));
    }

    for (std::uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      DistrictRow dr;
      dr.w_id = w;
      dr.d_id = d;
      dr.tax = rng.uniform(0, 2000) / 10000.0;
      dr.ytd = 30'000.0;
      dr.next_o_id = scale_.initial_orders_per_district + 1;
      fill_text(std::span<char>(dr.name.data(), dr.name.size()), rng, 6);
      fill_text(std::span<char>(dr.address.data(), dr.address.size()), rng, 10);
      db_.table(ids_[kDistrict]).load_row_offline(district_key(w, d), to_row(dr));

      for (std::uint32_t c = 1; c <= scale_.customers_per_district; ++c) {
        CustomerRow cr;
        cr.w_id = w;
        cr.d_id = d;
        cr.c_id = c;
        cr.discount = rng.uniform(0, 5000) / 10000.0;
        const std::int64_t name_num =
            c <= 1000 ? static_cast<std::int64_t>(c - 1)
                      : sim::nurand(rng, 255, 0, 999, c_.c_last);
        const std::string last = last_name(name_num);
        std::copy_n(last.data(), std::min(last.size(), cr.last.size()), cr.last.data());
        fill_text(std::span<char>(cr.first.data(), cr.first.size()), rng, 8);
        cr.credit[0] = rng.chance(0.1) ? 'B' : 'G';
        cr.credit[1] = 'C';
        fill_text(std::span<char>(cr.address.data(), cr.address.size()), rng, 10);
        fill_text(std::span<char>(cr.data.data(), cr.data.size()), rng, 300);
        db_.table(ids_[kCustomer]).load_row_offline(customer_key(w, d, c), to_row(cr));
      }

      // Initial orders: every customer appears once in a random permutation.
      std::vector<std::uint32_t> cust_perm(scale_.customers_per_district);
      for (std::uint32_t c = 0; c < cust_perm.size(); ++c) cust_perm[c] = c + 1;
      rng.shuffle(cust_perm);
      const std::uint32_t undelivered_from =
          scale_.initial_orders_per_district -
          std::min(scale_.initial_orders_per_district,
                   scale_.initial_orders_per_district * 3 / 10) + 1;
      for (std::uint32_t o = 1; o <= scale_.initial_orders_per_district; ++o) {
        // Orders beyond the permutation (scaled runs) pick random customers.
        const std::uint32_t c =
            o <= cust_perm.size()
                ? cust_perm[o - 1]
                : static_cast<std::uint32_t>(
                      rng.uniform(1, scale_.customers_per_district));
        OrderRow orow;
        orow.w_id = w;
        orow.d_id = d;
        orow.o_id = o;
        orow.c_id = c;
        orow.ol_cnt = static_cast<std::uint32_t>(rng.uniform(5, 15));
        orow.carrier_id =
            o < undelivered_from ? static_cast<std::uint32_t>(rng.uniform(1, 10)) : 0;
        db_.table(ids_[kOrder]).load_row_offline(order_key(w, d, o), to_row(orow));
        for (std::uint32_t ol = 1; ol <= orow.ol_cnt; ++ol) {
          OrderLineRow lr;
          lr.w_id = w;
          lr.d_id = d;
          lr.o_id = o;
          lr.ol_number = ol;
          lr.i_id = static_cast<std::uint32_t>(rng.uniform(1, scale_.items));
          lr.supply_w_id = w;
          lr.delivery_d = o < undelivered_from ? 1 : 0;
          lr.amount = o < undelivered_from ? 0.0 : rng.uniform(1, 999'999) / 100.0;
          fill_text(std::span<char>(lr.dist_info.data(), lr.dist_info.size()), rng, 24);
          db_.table(ids_[kOrderLine])
              .load_row_offline(order_line_key(w, d, o, ol), to_row(lr));
        }
        if (orow.carrier_id == 0) {
          NewOrderRow nr{w, d, o};
          db_.table(ids_[kNewOrder]).load_row_offline(new_order_key(w, d, o), to_row(nr));
        }
      }
    }
  }
  rebuild_aux_indexes();
}

void TpccDatabase::rebuild_aux_indexes() {
  last_order_.clear();
  backlog_.clear();

  // Customer-by-last-name secondary index: bulk-loaded from the customer
  // table (the tables' hash indexes are rebuilt by Database::recover).
  build_name_index();

  // Order backlog + newest order per customer: scan the tables.
  std::map<std::uint64_t, std::vector<std::uint32_t>> pending;
  db_.table(ids_[kNewOrder]).for_each_key([&pending](db::Key key) {
    pending[key >> 32].push_back(static_cast<std::uint32_t>(key & 0xFFFFFFFF));
  });
  for (auto& [wd, orders] : pending) {
    std::sort(orders.begin(), orders.end());
    backlog_[wd] = std::deque<std::uint32_t>(orders.begin(), orders.end());
  }
}

std::uint32_t TpccDatabase::last_order_of(std::uint32_t w, std::uint32_t d,
                                          std::uint32_t c) const {
  auto it = last_order_.find(customer_key(w, d, c));
  return it == last_order_.end() ? 0 : it->second;
}

void TpccDatabase::note_new_order(std::uint32_t w, std::uint32_t d, std::uint32_t c,
                                  std::uint32_t o) {
  last_order_[customer_key(w, d, c)] = o;
  backlog_[wd_key(w, d)].push_back(o);
}

std::uint32_t TpccDatabase::oldest_new_order(std::uint32_t w, std::uint32_t d, bool pop) {
  auto it = backlog_.find(wd_key(w, d));
  if (it == backlog_.end() || it->second.empty()) return 0;
  const std::uint32_t o = it->second.front();
  if (pop) it->second.pop_front();
  return o;
}

void TpccDatabase::unpop_new_order(std::uint32_t w, std::uint32_t d, std::uint32_t o) {
  backlog_[wd_key(w, d)].push_front(o);
}

TpccDatabase::ConsistencyReport TpccDatabase::check_consistency(sim::Simulator& sim) {
  ConsistencyReport report;
  auto read_row = [&](db::TableId table, db::Key key, db::RowBuf& out) {
    bool done = false, found = false;
    db_.table(table).get(key, [&](bool f, db::RowView row) {
      found = f;
      out.assign(row.begin(), row.end());
      done = true;
    });
    while (!done)
      if (!sim.step()) throw std::runtime_error("check_consistency: stalled");
    return found;
  };

  for (std::uint32_t w = 1; w <= scale_.warehouses; ++w) {
    db::RowBuf buf;
    if (!read_row(ids_[kWarehouse], warehouse_key(w), buf)) {
      report.ok = false;
      report.detail = "missing warehouse row";
      return report;
    }
    const auto wr = from_row<WarehouseRow>(buf);
    double district_ytd = 0;
    std::uint64_t next_o_sum = 0;
    for (std::uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      if (!read_row(ids_[kDistrict], district_key(w, d), buf)) {
        report.ok = false;
        report.detail = "missing district row";
        return report;
      }
      const auto dr = from_row<DistrictRow>(buf);
      district_ytd += dr.ytd;
      next_o_sum += dr.next_o_id;
      // Clause 3.3.2.3: every order id below next_o_id must exist.
      const std::uint32_t probe = dr.next_o_id - 1;
      if (probe >= 1 && !db_.table(ids_[kOrder]).contains(order_key(w, d, probe))) {
        report.ok = false;
        report.detail = "order " + std::to_string(probe) + " missing below next_o_id";
        return report;
      }
      if (db_.table(ids_[kOrder]).contains(order_key(w, d, dr.next_o_id))) {
        report.ok = false;
        report.detail = "order at next_o_id already exists";
        return report;
      }
    }
    if (std::abs(wr.ytd - district_ytd) > 0.01) {
      report.ok = false;
      report.detail = "W_YTD " + std::to_string(wr.ytd) + " != sum(D_YTD) " +
                      std::to_string(district_ytd);
      return report;
    }
  }
  return report;
}

}  // namespace trail::tpcc
