#include "tpcc/transactions.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "db/chain.hpp"

namespace trail::tpcc {

namespace {

/// Early-exit async sequencer: each step receives next(ok); next(false)
/// short-circuits to the finish handler with ok=false. Only the pending
/// next() owns the state (see db/chain.hpp).
class Flow {
  struct State;

 public:
  /// A shared handle on the flow, small enough to ride in any
  /// continuation's inline capture.
  class Next {
   public:
    void operator()(bool ok) const { advance(state_, ok); }

   private:
    friend class Flow;
    explicit Next(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };
  using Step = sim::Callback<void(Next)>;

  /// NEW-ORDER, the longest transaction, runs five steps plus one per
  /// order line (at most 15).
  Flow() { steps_.reserve(20); }

  Flow& then(Step step) {
    steps_.push_back(std::move(step));
    return *this;
  }

  void run(sim::Callback<void(bool)> finish) && {
    advance(std::make_shared<State>(State{std::move(steps_), std::move(finish), 0}), true);
  }

 private:
  struct State {
    std::vector<Step> steps;
    sim::Callback<void(bool)> finish;
    std::size_t index = 0;
  };

  static void advance(const std::shared_ptr<State>& st, bool ok) {
    if (!ok || st->index >= st->steps.size()) {
      st->finish(ok);
      return;
    }
    st->steps[st->index++](Next(st));
  }

  std::vector<Step> steps_;
};

}  // namespace

TxnType pick_txn_type(sim::Rng& rng) {
  const auto roll = rng.uniform(1, 100);
  if (roll <= 45) return TxnType::kNewOrder;
  if (roll <= 88) return TxnType::kPayment;
  if (roll <= 92) return TxnType::kOrderStatus;
  if (roll <= 96) return TxnType::kDelivery;
  return TxnType::kStockLevel;
}

void TxnRunner::run(TxnType type, Done done) {
  switch (type) {
    case TxnType::kNewOrder: new_order(std::move(done)); return;
    case TxnType::kPayment: payment(std::move(done)); return;
    case TxnType::kOrderStatus: order_status(std::move(done)); return;
    case TxnType::kDelivery: delivery(std::move(done)); return;
    case TxnType::kStockLevel: stock_level(std::move(done)); return;
  }
}

void TxnRunner::fail(db::Txn& txn, TxnType type, Done done, bool user_abort) {
  tpcc_.database().abort(txn, [type, user_abort, done = std::move(done)] {
    TxnResult result;
    result.type = type;
    result.committed = false;
    result.user_abort = user_abort;
    done(result);
  });
}

// ---------------------------------------------------------------------------
// NEW-ORDER (clause 2.4)
// ---------------------------------------------------------------------------

void TxnRunner::new_order(Done done) {
  struct Ctx {
    std::uint32_t w, d, c;
    std::uint32_t ol_cnt;
    bool rollback;  // clause 2.4.1.4: 1% unused item => rollback
    std::array<std::uint32_t, 15> items{};  // 5..15 order lines
    std::array<std::uint32_t, 15> qty{};
    std::uint32_t o_id = 0;
    double w_tax = 0, d_tax = 0, c_discount = 0;
    double total = 0;
    Done done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->w = random_warehouse();
  ctx->d = random_district();
  ctx->c = nurand_customer();
  ctx->ol_cnt = static_cast<std::uint32_t>(rng_.uniform(5, 15));
  ctx->rollback = rng_.chance(0.01);
  for (std::uint32_t i = 0; i < ctx->ol_cnt; ++i) {
    ctx->items[i] = nurand_item();
    ctx->qty[i] = static_cast<std::uint32_t>(rng_.uniform(1, 10));
  }
  ctx->done = std::move(done);

  db::Database& dbe = tpcc_.database();
  db::Txn& txn = dbe.begin();
  Flow flow;

  // District: allocate the order id.
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get_for_update(t_district(), district_key(ctx->w, ctx->d),
                       [this, &txn, ctx, next](bool ok, bool found, db::RowView row) {
                         if (!ok || !found) {
                           next(false);
                           return;
                         }
                         auto dr = from_row<DistrictRow>(row);
                         ctx->o_id = dr.next_o_id;
                         ctx->d_tax = dr.tax;
                         dr.next_o_id += 1;
                         txn.update(t_district(), district_key(ctx->w, ctx->d), to_row(dr),
                                    [next](bool ok2) { next(ok2); });
                       });
  });
  // Warehouse tax + customer discount (reads).
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get(t_warehouse(), warehouse_key(ctx->w), [ctx, next](bool found, db::RowView row) {
      if (found) ctx->w_tax = from_row<WarehouseRow>(row).tax;
      next(found);
    });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get(t_customer(), customer_key(ctx->w, ctx->d, ctx->c),
            [ctx, next](bool found, db::RowView row) {
              if (found) ctx->c_discount = from_row<CustomerRow>(row).discount;
              next(found);
            });
  });
  // ORDER + NEW-ORDER rows.
  flow.then([this, &txn, ctx](Flow::Next next) {
    OrderRow orow;
    orow.w_id = ctx->w;
    orow.d_id = ctx->d;
    orow.o_id = ctx->o_id;
    orow.c_id = ctx->c;
    orow.entry_d = tpcc_.database().simulator().now().ns();
    orow.ol_cnt = ctx->ol_cnt;
    txn.insert(t_order(), order_key(ctx->w, ctx->d, ctx->o_id), to_row(orow),
               [next](bool ok) { next(ok); });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    NewOrderRow nr{ctx->w, ctx->d, ctx->o_id};
    txn.insert(t_new_order(), new_order_key(ctx->w, ctx->d, ctx->o_id), to_row(nr),
               [next](bool ok) { next(ok); });
  });
  // Order lines: item read, stock update, order-line insert.
  for (std::uint32_t i = 0; i < ctx->ol_cnt; ++i) {
    const bool last = i + 1 == ctx->ol_cnt;
    flow.then([this, &txn, ctx, i, last](Flow::Next next) {
      if (last && ctx->rollback) {
        // Unused item number: the transaction must roll back (and still
        // counts as "completed" per clause 2.4.1.4's intent; we report it
        // as a user abort).
        next(false);
        return;
      }
      txn.get(t_item(), item_key(ctx->items[i]), [this, &txn, ctx, i, next](
                                                     bool found, db::RowView row) {
        if (!found) {
          next(false);
          return;
        }
        const double price = from_row<ItemRow>(row).price;
        txn.get_for_update(
            t_stock(), stock_key(ctx->w, ctx->items[i]),
            [this, &txn, ctx, i, price, next](bool ok, bool found2, db::RowView srow) {
              if (!ok || !found2) {
                next(false);
                return;
              }
              auto sr = from_row<StockRow>(srow);
              sr.quantity = sr.quantity >= ctx->qty[i] + 10 ? sr.quantity - ctx->qty[i]
                                                            : sr.quantity + 91 - ctx->qty[i];
              sr.ytd += ctx->qty[i];
              sr.order_cnt += 1;
              txn.update(
                  t_stock(), stock_key(ctx->w, ctx->items[i]), to_row(sr),
                  [this, &txn, ctx, i, price, next](bool ok2) {
                    if (!ok2) {
                      next(false);
                      return;
                    }
                    OrderLineRow lr;
                    lr.w_id = ctx->w;
                    lr.d_id = ctx->d;
                    lr.o_id = ctx->o_id;
                    lr.ol_number = i + 1;
                    lr.i_id = ctx->items[i];
                    lr.supply_w_id = ctx->w;
                    lr.quantity = ctx->qty[i];
                    lr.amount = price * ctx->qty[i];
                    ctx->total += lr.amount;
                    txn.insert(t_order_line(),
                               order_line_key(ctx->w, ctx->d, ctx->o_id, i + 1), to_row(lr),
                               [next](bool ok3) { next(ok3); });
                  });
            });
      });
    });
  }

  std::move(flow).run([this, &txn, ctx](bool ok) {
    if (!ok) {
      fail(txn, TxnType::kNewOrder, std::move(ctx->done), ctx->rollback);
      return;
    }
    tpcc_.database().commit(txn, [this, ctx](bool committed) {
      if (committed) tpcc_.note_new_order(ctx->w, ctx->d, ctx->c, ctx->o_id);
      TxnResult result;
      result.type = TxnType::kNewOrder;
      result.committed = committed;
      ctx->done(result);
    });
  });
}

// ---------------------------------------------------------------------------
// PAYMENT (clause 2.5)
// ---------------------------------------------------------------------------

void TxnRunner::payment(Done done) {
  struct Ctx {
    std::uint32_t w, d, c = 0;
    double amount;
    bool by_name;
    std::string last;
    Done done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->w = random_warehouse();
  ctx->d = random_district();
  ctx->amount = rng_.uniform(100, 500'000) / 100.0;
  ctx->by_name = rng_.chance(0.60);
  ctx->c = nurand_customer();  // by-id case / by-name fallback
  if (ctx->by_name)
    ctx->last = TpccDatabase::last_name(
        sim::nurand(rng_, 255, 0, 999, tpcc_.nurand_c().c_last));
  ctx->done = std::move(done);

  db::Txn& txn = tpcc_.database().begin();
  Flow flow;
  if (ctx->by_name) {
    // Resolve the customer through the by-name secondary index (real
    // index-page I/O; clause 2.5.2.2 picks the midpoint, rounded up).
    flow.then([this, ctx](Flow::Next next) {
      tpcc_.lookup_by_last_name(ctx->w, ctx->d, ctx->last,
                                [ctx, next](std::vector<std::uint32_t> ids) {
                                  if (!ids.empty()) ctx->c = ids[ids.size() / 2];
                                  next(true);
                                });
    });
  }
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get_for_update(t_warehouse(), warehouse_key(ctx->w),
                       [this, &txn, ctx, next](bool ok, bool found, db::RowView row) {
                         if (!ok || !found) {
                           next(false);
                           return;
                         }
                         auto wr = from_row<WarehouseRow>(row);
                         wr.ytd += ctx->amount;
                         txn.update(t_warehouse(), warehouse_key(ctx->w), to_row(wr),
                                    [next](bool ok2) { next(ok2); });
                       });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get_for_update(t_district(), district_key(ctx->w, ctx->d),
                       [this, &txn, ctx, next](bool ok, bool found, db::RowView row) {
                         if (!ok || !found) {
                           next(false);
                           return;
                         }
                         auto dr = from_row<DistrictRow>(row);
                         dr.ytd += ctx->amount;
                         txn.update(t_district(), district_key(ctx->w, ctx->d), to_row(dr),
                                    [next](bool ok2) { next(ok2); });
                       });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get_for_update(
        t_customer(), customer_key(ctx->w, ctx->d, ctx->c),
        [this, &txn, ctx, next](bool ok, bool found, db::RowView row) {
          if (!ok || !found) {
            next(false);
            return;
          }
          auto cr = from_row<CustomerRow>(row);
          cr.balance -= ctx->amount;
          cr.ytd_payment += ctx->amount;
          cr.payment_cnt += 1;
          txn.update(t_customer(), customer_key(ctx->w, ctx->d, ctx->c), to_row(cr),
                     [next](bool ok2) { next(ok2); });
        });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    HistoryRow hr;
    hr.w_id = ctx->w;
    hr.d_id = ctx->d;
    hr.c_id = ctx->c;
    hr.date = tpcc_.database().simulator().now().ns();
    hr.amount = ctx->amount;
    // History has no primary key in TPC-C; synthesize a unique one.
    const db::Key hkey = (static_cast<db::Key>(txn.id()) << 16) | ctx->d;
    txn.insert(t_history(), hkey, to_row(hr), [next](bool ok) { next(ok); });
  });

  std::move(flow).run([this, &txn, ctx](bool ok) {
    if (!ok) {
      fail(txn, TxnType::kPayment, std::move(ctx->done));
      return;
    }
    tpcc_.database().commit(txn, [ctx](bool committed) {
      TxnResult result;
      result.type = TxnType::kPayment;
      result.committed = committed;
      ctx->done(result);
    });
  });
}

// ---------------------------------------------------------------------------
// ORDER-STATUS (clause 2.6) — read only
// ---------------------------------------------------------------------------

void TxnRunner::order_status(Done done) {
  struct Ctx {
    std::uint32_t w, d, c, o = 0;
    std::uint32_t ol_cnt = 0;
    Done done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->w = random_warehouse();
  ctx->d = random_district();
  ctx->c = nurand_customer();
  const bool by_name = rng_.chance(0.60);
  std::string last;
  if (by_name)
    last = TpccDatabase::last_name(sim::nurand(rng_, 255, 0, 999, tpcc_.nurand_c().c_last));
  ctx->done = std::move(done);

  db::Txn& txn = tpcc_.database().begin();
  Flow flow;
  if (by_name) {
    flow.then([this, ctx, last](Flow::Next next) {
      tpcc_.lookup_by_last_name(ctx->w, ctx->d, last,
                                [ctx, next](std::vector<std::uint32_t> ids) {
                                  if (!ids.empty()) ctx->c = ids[ids.size() / 2];
                                  next(true);
                                });
    });
  }
  flow.then([this, ctx](Flow::Next next) {
    ctx->o = tpcc_.last_order_of(ctx->w, ctx->d, ctx->c);
    next(true);
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get(t_customer(), customer_key(ctx->w, ctx->d, ctx->c),
            [next](bool found, db::RowView) { next(found); });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    if (ctx->o == 0) {
      next(true);  // customer has no tracked order yet
      return;
    }
    txn.get(t_order(), order_key(ctx->w, ctx->d, ctx->o),
            [ctx, next](bool found, db::RowView row) {
              if (found) ctx->ol_cnt = from_row<OrderRow>(row).ol_cnt;
              next(true);
            });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    if (ctx->ol_cnt == 0) {
      next(true);
      return;
    }
    // Read each order line sequentially.
    db::loop([this, &txn, ctx, line = std::uint32_t{1}, next](const auto& again) mutable {
      if (line > ctx->ol_cnt) {
        next(true);
        return;
      }
      txn.get(t_order_line(), order_line_key(ctx->w, ctx->d, ctx->o, line++),
              [again](bool, db::RowView) { again(); });
    });
  });

  std::move(flow).run([this, &txn, ctx](bool ok) {
    if (!ok) {
      fail(txn, TxnType::kOrderStatus, std::move(ctx->done));
      return;
    }
    tpcc_.database().commit(txn, [ctx](bool committed) {
      TxnResult result;
      result.type = TxnType::kOrderStatus;
      result.committed = committed;
      ctx->done(result);
    });
  });
}

// ---------------------------------------------------------------------------
// DELIVERY (clause 2.7)
// ---------------------------------------------------------------------------

void TxnRunner::delivery(Done done) {
  struct Ctx {
    std::uint32_t w;
    std::uint32_t carrier;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> picked;  // (d, o)
    // The district step running now: its order and the order line read.
    std::uint32_t d = 1;
    std::uint32_t o = 0;
    std::uint32_t ol = 0;
    std::uint32_t c = 0;
    std::uint32_t ol_cnt = 0;
    double total = 0;
    Done done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->w = random_warehouse();
  ctx->carrier = static_cast<std::uint32_t>(rng_.uniform(1, 10));
  ctx->done = std::move(done);

  db::Txn& txn = tpcc_.database().begin();
  Flow flow;
  for (std::uint32_t d = 1; d <= tpcc_.scale().districts_per_warehouse; ++d) {
    flow.then([this, &txn, ctx, d](Flow::Next next) {
      const std::uint32_t o = tpcc_.oldest_new_order(ctx->w, d, /*pop=*/true);
      if (o == 0) {
        next(true);  // no undelivered order in this district: skip
        return;
      }
      ctx->picked.emplace_back(d, o);
      ctx->d = d;
      ctx->o = o;
      // Delete NEW-ORDER row, stamp the order, stamp its lines, credit
      // the customer.
      txn.remove(t_new_order(), new_order_key(ctx->w, d, o), [this, &txn, ctx, next](bool ok) {
        if (!ok) {
          next(false);
          return;
        }
        txn.get_for_update(
            t_order(), order_key(ctx->w, ctx->d, ctx->o),
            [this, &txn, ctx, next](bool ok2, bool found, db::RowView row) {
              if (!ok2 || !found) {
                next(false);
                return;
              }
              auto orow = from_row<OrderRow>(row);
              orow.carrier_id = ctx->carrier;
              ctx->c = orow.c_id;
              ctx->ol_cnt = orow.ol_cnt;
              ctx->total = 0;
              txn.update(
                  t_order(), order_key(ctx->w, ctx->d, ctx->o), to_row(orow),
                  [this, &txn, ctx, next](bool ok3) {
                    if (!ok3) {
                      next(false);
                      return;
                    }
                    // Stamp each order line with the delivery date.
                    db::loop([this, &txn, ctx, line = std::uint32_t{1},
                              next](const auto& again) mutable {
                      if (line > ctx->ol_cnt) {
                        // Credit the customer's balance.
                        txn.get_for_update(
                            t_customer(), customer_key(ctx->w, ctx->d, ctx->c),
                            [this, &txn, ctx, next](bool ok4, bool found2,
                                                    db::RowView crow) {
                              if (!ok4 || !found2) {
                                next(false);
                                return;
                              }
                              auto cr = from_row<CustomerRow>(crow);
                              cr.balance += ctx->total;
                              cr.delivery_cnt += 1;
                              txn.update(t_customer(), customer_key(ctx->w, ctx->d, ctx->c),
                                         to_row(cr), [next](bool ok5) { next(ok5); });
                            });
                        return;
                      }
                      ctx->ol = line++;
                      txn.get_for_update(
                          t_order_line(), order_line_key(ctx->w, ctx->d, ctx->o, ctx->ol),
                          [this, &txn, ctx, again, next](bool ok4, bool found2,
                                                         db::RowView lrow) {
                            if (!ok4) {
                              next(false);
                              return;
                            }
                            if (!found2) {
                              again();
                              return;
                            }
                            auto lr = from_row<OrderLineRow>(lrow);
                            lr.delivery_d = tpcc_.database().simulator().now().ns();
                            ctx->total += lr.amount;
                            txn.update(t_order_line(),
                                       order_line_key(ctx->w, ctx->d, ctx->o, ctx->ol),
                                       to_row(lr), [again, next](bool ok5) {
                                         if (!ok5) {
                                           next(false);
                                           return;
                                         }
                                         again();
                                       });
                          });
                    });
                  });
            });
      });
    });
  }

  std::move(flow).run([this, &txn, ctx](bool ok) {
    if (!ok) {
      // Return the popped orders to the backlog (newest first so order is
      // preserved when re-prepended).
      for (auto it = ctx->picked.rbegin(); it != ctx->picked.rend(); ++it)
        tpcc_.unpop_new_order(ctx->w, it->first, it->second);
      fail(txn, TxnType::kDelivery, std::move(ctx->done));
      return;
    }
    tpcc_.database().commit(txn, [this, ctx](bool committed) {
      if (!committed)
        for (auto it = ctx->picked.rbegin(); it != ctx->picked.rend(); ++it)
          tpcc_.unpop_new_order(ctx->w, it->first, it->second);
      TxnResult result;
      result.type = TxnType::kDelivery;
      result.committed = committed;
      ctx->done(result);
    });
  });
}

// ---------------------------------------------------------------------------
// STOCK-LEVEL (clause 2.8) — read only
// ---------------------------------------------------------------------------

void TxnRunner::stock_level(Done done) {
  struct Ctx {
    std::uint32_t w, d;
    std::uint32_t threshold;
    std::uint32_t next_o = 0;
    std::vector<std::uint32_t> item_ids;
    std::uint32_t low = 0;
    Done done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->w = random_warehouse();
  ctx->d = random_district();
  ctx->threshold = static_cast<std::uint32_t>(rng_.uniform(10, 20));
  ctx->done = std::move(done);

  db::Txn& txn = tpcc_.database().begin();
  Flow flow;
  flow.then([this, &txn, ctx](Flow::Next next) {
    txn.get(t_district(), district_key(ctx->w, ctx->d),
            [ctx, next](bool found, db::RowView row) {
              if (!found) {
                next(false);
                return;
              }
              ctx->next_o = from_row<DistrictRow>(row).next_o_id;
              next(true);
            });
  });
  // Collect item ids from the last 20 orders' lines, then probe stock.
  flow.then([this, &txn, ctx](Flow::Next next) {
    const std::uint32_t from = ctx->next_o > 20 ? ctx->next_o - 20 : 1;
    db::loop([this, &txn, ctx, o = from, ol = std::uint32_t{1},
              next](const auto& again) mutable {
      if (o >= ctx->next_o) {
        next(true);
        return;
      }
      if (ol > 15) {
        ol = 1;
        ++o;
        again();
        return;
      }
      txn.get(t_order_line(), order_line_key(ctx->w, ctx->d, o, ol++),
              [ctx, again](bool found, db::RowView row) {
                if (found) ctx->item_ids.push_back(from_row<OrderLineRow>(row).i_id);
                again();
              });
    });
  });
  flow.then([this, &txn, ctx](Flow::Next next) {
    std::sort(ctx->item_ids.begin(), ctx->item_ids.end());
    ctx->item_ids.erase(std::unique(ctx->item_ids.begin(), ctx->item_ids.end()),
                        ctx->item_ids.end());
    db::loop([this, &txn, ctx, idx = std::size_t{0}, next](const auto& again) mutable {
      if (idx >= ctx->item_ids.size()) {
        next(true);
        return;
      }
      const std::uint32_t item = ctx->item_ids[idx++];
      txn.get(t_stock(), stock_key(ctx->w, item), [ctx, again](bool found, db::RowView row) {
        if (found && from_row<StockRow>(row).quantity < ctx->threshold) ++ctx->low;
        again();
      });
    });
  });

  std::move(flow).run([this, &txn, ctx](bool ok) {
    if (!ok) {
      fail(txn, TxnType::kStockLevel, std::move(ctx->done));
      return;
    }
    tpcc_.database().commit(txn, [ctx](bool committed) {
      TxnResult result;
      result.type = TxnType::kStockLevel;
      result.committed = committed;
      ctx->done(result);
    });
  });
}

}  // namespace trail::tpcc
