// Record-level exclusive locks with FIFO waiting and timeout aborts.
//
// TPC-C's canonical lock-order (warehouse -> district -> customer/stock)
// makes deadlock rare; the timeout both breaks the residual cases and
// produces the "transaction abortion rate" effect §5.2 mentions under
// group commit's I/O clustering.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/types.hpp"
#include "sim/callback.hpp"
#include "sim/flat_map.hpp"
#include "sim/simulator.hpp"

namespace trail::db {

struct LockStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t waits = 0;
  std::uint64_t timeouts = 0;
  sim::Duration wait_time;
};

class LockManager {
 public:
  LockManager(sim::Simulator& sim, sim::Duration timeout) : sim_(sim), timeout_(timeout) {}
  ~LockManager();

  using Granted = sim::Callback<void(bool granted)>;

  /// Acquire an exclusive lock on (table, key); cb(true) when granted
  /// (immediately if free or re-entrant), cb(false) on timeout.
  void lock(TxnId txn, TableId table, Key key, Granted cb);

  /// Release every lock held by `txn` and grant waiters.
  void release_all(TxnId txn);

  [[nodiscard]] const LockStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t held_locks() const { return locks_.size(); }

 private:
  using LockId = std::uint64_t;
  static LockId lock_id(TableId table, Key key) {
    // Keys in this engine are compound-but-small; fold the table in high bits.
    return static_cast<LockId>(table) << 48 ^ key * 0x9E3779B97F4A7C15ULL;
  }

  struct Waiter {
    TxnId txn;
    Granted cb;
    sim::EventId timeout_event;
    sim::TimePoint since;
  };
  struct LockState {
    TxnId holder = 0;
    std::vector<Waiter> waiters;  // FIFO; allocates only once contended
  };

  void grant_next(LockId id, LockState& state);

  sim::Simulator& sim_;
  sim::Duration timeout_;
  sim::FlatMap<LockState> locks_;
  // held_'s nodes and bucket arrays, recycled: a lock costs no heap
  // allocation once the pool is warm.
  std::pmr::unsynchronized_pool_resource held_pool_;
  // Its iteration order is release_all's grant order, which the simulated
  // schedule depends on: keep the container. That order follows from the
  // hash and the bucket count alone, so the pool leaves it unchanged.
  std::pmr::unordered_map<TxnId, std::pmr::unordered_set<LockId>> held_{&held_pool_};
  LockStats stats_;
};

}  // namespace trail::db
