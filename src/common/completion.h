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

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/inline_fn.h"

namespace mcrdl {

class Completion {
 public:
  using Callback = InlineFn;

  // The queued callbacks, in registration order. The first kInline live in
  // place; a dispatched op typically registers one or two (its backend's
  // exec_start hook, the pipeline's finish record), so only the shared
  // completion of a whole collective spills to the heap.
  class Callbacks {
   public:
    static constexpr std::size_t kInline = 2;

    bool empty() const { return size_ == 0; }
    void reserve(std::size_t n) {
      if (n > kInline) tail_.reserve(n - kInline);
    }
    void push_back(Callback fn) {
      if (size_ < kInline) {
        head_[size_] = std::move(fn);
      } else {
        tail_.push_back(std::move(fn));
      }
      ++size_;
    }
    Callback& operator[](std::size_t i) { return i < kInline ? head_[i] : tail_[i - kInline]; }

    class iterator {
     public:
      iterator(Callbacks* owner, std::size_t i) : owner_(owner), i_(i) {}
      Callback& operator*() const { return (*owner_)[i_]; }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& other) const { return i_ != other.i_; }

     private:
      Callbacks* owner_;
      std::size_t i_;
    };
    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }

   private:
    std::array<Callback, kInline> head_;
    std::vector<Callback> tail_;
    std::size_t size_ = 0;
  };

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

  // Room for n callbacks in one allocation, for an owner that knows how many
  // registrations to expect (a collective's rendezvous: two per rank).
  void reserve(std::size_t n) { callbacks_.reserve(n); }

  // Back to pending, keeping anything still queued (sim::Event re-arm).
  void reset() { state_ = State::Pending; }

 private:
  enum class State { Pending, Fired, Dropped };
  State state_ = State::Pending;
  Callbacks callbacks_;
};

}  // namespace mcrdl
