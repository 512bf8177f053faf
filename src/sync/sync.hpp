// Annotated synchronization primitives (trail::sync).
//
// The one place in the tree allowed to touch std::mutex /
// std::condition_variable (scripts/lint.py enforces this): everything
// else locks through these wrappers so the Clang Thread Safety Analysis
// can prove, at compile time, that every TRAIL_GUARDED_BY member is
// only touched under its mutex. The wrappers add no state and no
// indirection — Mutex is exactly a std::mutex, MutexLock exactly a
// lock_guard — so the annotated build costs nothing over the raw one.
//
// Usage pattern (the only shapes the analysis models precisely):
//
//   class Q {
//     void push(int v) TRAIL_EXCLUDES(mu_) {
//       sync::MutexLock lock(mu_);
//       while (full()) not_full_.wait(mu_);   // REQUIRES(mu_): ok, held
//       items_.push_back(v);
//     }
//     mutable sync::Mutex mu_;
//     sync::CondVar not_full_;
//     std::deque<int> items_ TRAIL_GUARDED_BY(mu_);
//   };
//
// Condition-variable waits take the Mutex directly (not the MutexLock):
// the analysis treats the capability as continuously held across the
// wait, which matches the caller's proof obligations — the predicate
// re-check loop around the wait is written by the caller, in the locked
// scope, where the analysis can see it.
#pragma once

#include <condition_variable>
#include <mutex>

#include "sync/annotations.hpp"

namespace trail::sync {

/// An exclusive capability wrapping std::mutex.
class TRAIL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TRAIL_ACQUIRE() { m_.lock(); }
  void unlock() TRAIL_RELEASE() { m_.unlock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII exclusive lock (the only way first-party code should hold a
/// Mutex): acquires in the constructor, releases in the destructor, and
/// tells the analysis so.
class TRAIL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TRAIL_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() TRAIL_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to sync::Mutex. wait() must be called with
/// the mutex held (enforced by TRAIL_REQUIRES); it releases the mutex
/// while blocked and reacquires before returning, exactly like
/// std::condition_variable — callers keep the usual
/// `while (!predicate) cv.wait(mu);` shape inside the locked scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) TRAIL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller's MutexLock still owns the mutex
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace trail::sync
