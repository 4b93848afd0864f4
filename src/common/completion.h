// Completion: the one-shot callback list behind every WorkHandle.
//
// The ownership rule. A completion callback often captures the Work that
// registered it (the dispatch layer's latency/trace closure does, and so do
// the backends' exec_start hooks), and that Work owns the operation holding
// the list: Work -> operation -> callback -> Work. Only a terminal transition
// breaks the cycle, so a Completion is fired or dropped on every terminal
// path, and whoever holds not-yet-terminal operations drops them at
// teardown: a stream's op queue, the engines' pending tables, the overlap
// scheduler's chain slots, the fusion manager's open buckets. A callback
// runs exactly once or never, and never outlives its operation.
//
// Owners choose where callbacks run: fire() and add() hand them back rather
// than running them, so an owner can finish its own state change or open its
// gates first.
#pragma once

#include <functional>
#include <utility>
#include <vector>

namespace mcrdl {

class Completion {
 public:
  using Callback = std::function<void()>;
  using Callbacks = std::vector<std::function<void()>>;

  bool fired() const { return state_ == State::Fired; }

  // Pending: queues fn and returns an empty Callback. Fired: returns fn for
  // the caller to run inline now. Dropped: discards fn.
  [[nodiscard]] Callback add(Callback fn) {
    if (state_ == State::Fired) return fn;
    if (state_ == State::Pending) callbacks_.push_back(std::move(fn));
    return {};
  }

  // Success: returns the queued callbacks, in registration order, for the
  // caller to run. A second fire(), or one after drop(), returns nothing.
  [[nodiscard]] Callbacks fire() {
    state_ = State::Fired;
    return std::exchange(callbacks_, {});
  }

  // Failure, cancellation or teardown: discards the queued callbacks unrun,
  // and every later add(). No-op once fired.
  void drop() {
    if (state_ == State::Fired) return;
    state_ = State::Dropped;
    // Destroyed after the last member access: releasing a callback may
    // release the last reference to this Completion's owner.
    Callbacks discarded = std::exchange(callbacks_, {});
  }

  // Back to pending, keeping anything still queued (sim::Event re-arm).
  void reset() { state_ = State::Pending; }

 private:
  enum class State { Pending, Fired, Dropped };
  State state_ = State::Pending;
  Callbacks callbacks_;
};

}  // namespace mcrdl
