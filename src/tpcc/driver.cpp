#include "tpcc/driver.hpp"

#include <stdexcept>

namespace trail::tpcc {

Driver::Driver(TpccDatabase& tpcc, std::uint32_t concurrency, sim::Rng seed_rng)
    : tpcc_(tpcc), concurrency_(concurrency) {
  if (concurrency_ == 0) throw std::invalid_argument("Driver: concurrency must be > 0");
  for (std::uint32_t i = 0; i < concurrency_; ++i)
    runners_.push_back(std::make_unique<TxnRunner>(tpcc_, seed_rng.split()));
}

void Driver::warm_up(std::uint64_t txns) { (void)run_internal(txns, /*record=*/false); }

BenchResult Driver::run(std::uint64_t total_txns) {
  return run_internal(total_txns, /*record=*/true);
}

BenchResult Driver::run_internal(std::uint64_t total_txns, bool record) {
  // Each client loops: run one mixed transaction, record, repeat. The
  // issue budget is shared so exactly total_txns complete. Every issued
  // transaction has completed when the loop below ends, so no
  // continuation outlives this frame.
  struct Window {
    Driver& driver;
    sim::Simulator& sim;
    std::uint64_t total;
    bool record;
    BenchResult result;
    std::uint64_t completed = 0;
    std::uint64_t issued = 0;

    void go(std::size_t i) {
      if (issued >= total) return;
      ++issued;
      driver.runners_[i]->run_mixed(
          [this, i, t0 = sim.now()](TxnResult r) { finish(i, t0, r); });
    }

    void finish(std::size_t i, sim::TimePoint t0, TxnResult r) {
      if (record) {
        const sim::Duration response = sim.now() - t0;
        result.response.record(response);
        if (r.committed) {
          ++result.committed;
          if (r.type == TxnType::kNewOrder) {
            ++result.new_order_commits;
            result.new_order_response.record(response);
          }
        } else if (r.user_abort) {
          ++result.user_aborts;
        } else {
          ++result.aborted;
        }
      }
      ++completed;
      go(i);
    }
  };
  sim::Simulator& sim = tpcc_.database().simulator();
  const sim::TimePoint start = sim.now();
  Window w{*this, sim, total_txns, record, {}};
  for (std::size_t i = 0; i < concurrency_; ++i) w.go(i);

  while (w.completed < total_txns) {
    if (!sim.step()) throw std::runtime_error("TPC-C driver: simulation stalled");
  }
  w.result.wall = sim.now() - start;
  return std::move(w.result);
}

}  // namespace trail::tpcc
