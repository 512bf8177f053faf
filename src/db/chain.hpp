// Minimal sequential-async helpers: a list of continuation-passing steps
// run in order, and an asynchronous loop. Keeps transaction logic readable
// without coroutines. Neither holds a reference to itself: only the
// pending continuations own the state, so work that a power cut abandons
// (its completions never fire) is freed with them.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/callback.hpp"

namespace trail::db {

/// What a loop body receives: calling it runs the next iteration. It is a
/// shared handle on the body, small enough to ride in any continuation's
/// inline capture; the body is freed with the last copy.
class Again {
 public:
  using Body = sim::Callback<void(const Again& again)>;

  explicit Again(Body body) : body_(std::make_shared<Body>(std::move(body))) {}

  void operator()() const { (*body_)(*this); }

 private:
  std::shared_ptr<Body> body_;
};

/// Run `body` as an asynchronous loop: body(again) runs one iteration and
/// calls again() (from a completion, or synchronously) to run the next;
/// an iteration that does not call it ends the loop.
inline void loop(Again::Body body) { Again(std::move(body))(); }

/// Each step receives a `next` thunk and must eventually call it exactly
/// once (possibly synchronously).
class Chain {
 public:
  using Next = Again;
  using Step = sim::Callback<void(Next)>;

  Chain& then(Step step) {
    steps_.push_back(std::move(step));
    return *this;
  }

  /// Run all steps; invoke `done` after the last. The chain object may be
  /// a temporary: its steps move into the loop.
  void run(sim::Callback<void()> done) && {
    loop([steps = std::move(steps_), index = std::size_t{0},
          done = std::move(done)](const Next& again) mutable {
      if (index >= steps.size()) {
        if (done) done();
        return;
      }
      steps[index++](again);
    });
  }

 private:
  std::vector<Step> steps_;
};

}  // namespace trail::db
