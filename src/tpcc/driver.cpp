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
  sim::Simulator& sim = tpcc_.database().simulator();
  BenchResult result;
  const sim::TimePoint start = sim.now();
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;

  // Each client loops: run one mixed transaction, record, repeat. The
  // issue budget is shared so exactly total_txns complete.
  struct Client {
    std::function<void()> go;
  };
  auto clients = std::make_shared<std::vector<Client>>(concurrency_);

  for (std::uint32_t i = 0; i < concurrency_; ++i) {
    TxnRunner* runner = runners_[i].get();
    (*clients)[i].go = [this, runner, &sim, &result, &completed, &issued, total_txns,
                        record, clients, i] {
      if (issued >= total_txns) return;
      ++issued;
      const sim::TimePoint t0 = sim.now();
      runner->run_mixed([this, runner, &sim, &result, &completed, &issued, total_txns,
                         record, clients, i, t0](TxnResult r) {
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
        (*clients)[i].go();
      });
    };
  }
  for (auto& c : *clients) c.go();

  while (completed < total_txns) {
    if (!sim.step()) throw std::runtime_error("TPC-C driver: simulation stalled");
  }
  // The go lambdas capture `clients`, so the vector would keep itself
  // alive through the cycle; sever it now that every client is done.
  for (auto& c : *clients) c.go = nullptr;
  result.wall = sim.now() - start;
  return result;
}

}  // namespace trail::tpcc
