// TPC-C benchmark driver: N client processes each running transactions
// back-to-back (the paper's measurements use "the degree of concurrency"
// as the only load knob — disk I/Os arrive in bursts because transaction
// CPU time is far smaller than the logging I/O delay).
//
// Metrics mirror Table 2: transaction throughput (tpmC — committed
// NEW-ORDER transactions per simulated minute), average response time,
// and the log-device "disk I/O time for logging" is read off the device
// stats by the bench harness.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "tpcc/transactions.hpp"

namespace trail::tpcc {

struct BenchResult {
  std::uint64_t committed = 0;
  std::uint64_t new_order_commits = 0;
  std::uint64_t aborted = 0;       // lock timeouts etc.
  std::uint64_t user_aborts = 0;   // NEW-ORDER's intentional 1%
  sim::Duration wall;              // virtual time of the measured window
  obs::Histogram response;         // per-transaction response time (ns)
  obs::Histogram new_order_response;

  [[nodiscard]] double tpmc() const {
    const double minutes = wall.sec() / 60.0;
    return minutes > 0 ? static_cast<double>(new_order_commits) / minutes : 0.0;
  }
  [[nodiscard]] double txn_per_min() const {
    const double minutes = wall.sec() / 60.0;
    return minutes > 0 ? static_cast<double>(committed) / minutes : 0.0;
  }
};

class Driver {
 public:
  Driver(TpccDatabase& tpcc, std::uint32_t concurrency, sim::Rng seed_rng);

  /// Run until `total_txns` transactions have *completed* (committed or
  /// aborted), driving the simulator. Returns the measured window.
  BenchResult run(std::uint64_t total_txns);

  /// Run a warm-up of `txns` transactions without recording metrics.
  void warm_up(std::uint64_t txns);

 private:
  BenchResult run_internal(std::uint64_t total_txns, bool record);

  TpccDatabase& tpcc_;
  std::uint32_t concurrency_;
  std::vector<std::unique_ptr<TxnRunner>> runners_;
};

}  // namespace trail::tpcc
