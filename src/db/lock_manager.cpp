#include "db/lock_manager.hpp"

#include <algorithm>

namespace trail::db {

LockManager::~LockManager() {
  // Timeout events capture `this`; cancel them all on teardown.
  locks_.for_each([this](LockId, const LockState& state) {
    for (const Waiter& w : state.waiters) sim_.cancel(w.timeout_event);
  });
}

void LockManager::lock(TxnId txn, TableId table, Key key, Granted cb) {
  const LockId id = lock_id(table, key);
  LockState& state = locks_[id];
  if (state.holder == 0 || state.holder == txn) {
    state.holder = txn;
    held_[txn].insert(id);
    ++stats_.acquisitions;
    cb(true);
    return;
  }
  ++stats_.waits;
  Waiter w;
  w.txn = txn;
  w.cb = std::move(cb);
  w.since = sim_.now();
  w.timeout_event = sim_.schedule(timeout_, [this, id, txn] {
    LockState* lock = locks_.find(id);
    if (lock == nullptr) return;
    auto& ws = lock->waiters;
    auto wit = std::find_if(ws.begin(), ws.end(), [txn](const Waiter& x) { return x.txn == txn; });
    if (wit == ws.end()) return;
    auto cb = std::move(wit->cb);
    stats_.wait_time += sim_.now() - wit->since;
    ws.erase(wit);
    ++stats_.timeouts;
    cb(false);
  });
  state.waiters.push_back(std::move(w));
}

void LockManager::grant_next(LockId id, LockState& state) {
  if (state.waiters.empty()) {
    locks_.erase(id);
    return;
  }
  Waiter w = std::move(state.waiters.front());
  state.waiters.erase(state.waiters.begin());
  sim_.cancel(w.timeout_event);
  state.holder = w.txn;
  held_[w.txn].insert(id);
  ++stats_.acquisitions;
  stats_.wait_time += sim_.now() - w.since;
  w.cb(true);
}

void LockManager::release_all(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  const auto ids = std::move(it->second);
  held_.erase(it);
  for (const LockId id : ids) {
    LockState* lock = locks_.find(id);
    if (lock == nullptr || lock->holder != txn) continue;
    lock->holder = 0;
    grant_next(id, *lock);
  }
}

}  // namespace trail::db
