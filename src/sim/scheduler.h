// Virtual-time cooperative scheduler — the execution substrate for the whole
// simulated cluster.
//
// Model
// -----
// Every simulated rank (and nothing else) is an *actor*: a suspendable
// context that runs user code. The Scheduler is a thin facade over an
// ExecutionModel engine (execution_model.h, DESIGN.md §11):
//
//   SerialBaton (default) — every actor is a fiber on the thread that calls
//   run(), and exactly one executes at any instant; a "baton" is handed from
//   actor to actor by a direct context switch, so all simulated state is
//   implicitly protected by the baton and every run is deterministic.
//
//   ParallelShards — every actor is an OS thread; actors are partitioned
//   into per-shard run queues that execute concurrently under a conservative
//   virtual-time barrier; shared simulated state (engines, metrics, traces)
//   is made shard-safe explicitly. Default-config output is byte-identical
//   to SerialBaton.
//
// Virtual time only advances when every actor is blocked: the engine drains
// the timed-event queue (device kernel completions, fusion timeouts, link
// transfers) until some actor becomes runnable again. If every live actor is
// blocked and no timed event is pending, the system has genuinely
// deadlocked; the scheduler wakes all actors with DeadlockError. This is the
// property that lets the mixed-backend tests distinguish naive
// synchronisation (which deadlocks) from MCR-DL's ordering (which doesn't).
//
// Threading contract: Scheduler public methods are callable from actors or
// from timed-event callbacks (which run serialized — under the baton, or on
// the ParallelShards controller thread between actor phases). Timed-event
// callbacks must not block. Code outside run() may only call spawn()/run().
// No code may hold a host mutex across a scheduler wait: under SerialBaton
// every actor shares one OS thread, so the next actor to take that mutex
// self-deadlocks (or silently re-enters a recursive_mutex).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/execution_model.h"

namespace mcrdl::sim {

class Scheduler {
 public:
  // Identifies one suspension of one actor; handed to wake sources.
  using WaitToken = sim::WaitToken;

  Scheduler() : Scheduler(ExecutionConfig::serial()) {}
  explicit Scheduler(const ExecutionConfig& config)
      : config_(config), impl_(make_execution_model(config)) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers an actor. Must be called before run().
  void spawn(std::string name, std::function<void()> fn) {
    impl_->spawn(std::move(name), std::move(fn));
  }

  // Runs the actors spawned since the last run() until every one returns.
  // Rethrows the first actor exception (including DeadlockError) after all
  // actors have unwound.
  void run() { impl_->run(); }

  // Current virtual time in microseconds.
  SimTime now() const { return impl_->now(); }

  // --- actor-side blocking primitives ------------------------------------
  void sleep_until(SimTime t);
  void sleep_for(SimTime dt) { sleep_until(now() + dt); }
  // Gives every other actor runnable at the current virtual time a chance to
  // run before this actor continues.
  void yield();

  // --- low-level wait protocol (used by SimCondition and the device
  // runtime; most code should use SimCondition instead) --------------------
  // prepare_wait() marks the start of a suspension and returns the token the
  // wake source must present; the caller registers the token somewhere and
  // then calls commit_wait(), which blocks until try_wake() is called with a
  // matching token. try_wake returns false for stale tokens.
  WaitToken prepare_wait() { return impl_->prepare_wait(); }
  void commit_wait() { impl_->commit_wait(); }
  bool try_wake(const WaitToken& token, WakeReason reason) {
    return impl_->try_wake(token, reason);
  }

  // --- timed events -------------------------------------------------------
  // Schedules fn at virtual time t (clamped to now if in the past). Returns
  // an id usable with cancel(). fn runs serialized with respect to all
  // actors and must not block.
  std::uint64_t schedule_at(SimTime t, std::function<void()> fn) {
    return impl_->schedule_at(t, std::move(fn));
  }
  std::uint64_t schedule_after(SimTime dt, std::function<void()> fn) {
    return impl_->schedule_at(now() + dt, std::move(fn));
  }
  // Cancels a pending event; no-op if it already fired.
  void cancel(std::uint64_t event_id) { impl_->cancel(event_id); }

  // Name of the calling actor ("" outside actor context). Returned by
  // value: a reference into actor state would dangle or race once shards run
  // concurrently.
  std::string current_actor_name() const { return impl_->current_actor_name(); }
  // Index of the current actor in spawn order (-1 outside actor context).
  int current_actor_id() const { return impl_->current_actor_id(); }
  bool running() const { return impl_->running(); }

  // Number of timed events that have fired so far (diagnostic).
  std::uint64_t events_fired() const { return impl_->events_fired(); }
  // Number of live (not fired, not cancelled) timed events in the queue.
  std::uint64_t pending_events() const { return impl_->pending_events(); }

  // --- execution-model introspection --------------------------------------
  const ExecutionConfig& execution_config() const { return config_; }
  ExecutionModelKind execution_kind() const { return impl_->kind(); }
  int shard_count() const { return impl_->shard_count(); }
  std::uint64_t barrier_epochs() const { return impl_->barrier_epochs(); }

 private:
  ExecutionConfig config_;
  std::unique_ptr<ExecutionModel> impl_;
};

// A condition variable in virtual time. wait() suspends the calling actor
// until another actor (or a timed event) calls notify_all(); the predicate
// overload loops like std::condition_variable::wait. The waiter list has its
// own lock so concurrent shards can wait/notify safely.
class SimCondition {
 public:
  explicit SimCondition(Scheduler* sched) : sched_(sched) {}
  SimCondition(const SimCondition&) = delete;
  SimCondition& operator=(const SimCondition&) = delete;

  void wait();

  // Predicate form. The predicate is re-checked *after* the wait token is
  // registered, which closes the lost-wakeup window under ParallelShards: a
  // notifier that flips the condition between the first check and the
  // registration is either observed by the re-check (skip the block) or
  // lands on the registered token (pending-wake / normal wake). Abandoned
  // tokens are neutralized by the next prepare_wait's generation bump.
  template <typename Pred>
  void wait(Pred pred) {
    while (!pred()) {
      Scheduler::WaitToken token = sched_->prepare_wait();
      {
        std::lock_guard<std::mutex> lock(mu_);
        waiters_.push_back(token);
      }
      if (pred()) continue;
      sched_->commit_wait();
    }
  }

  void notify_all();

  bool has_waiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !waiters_.empty();
  }

 private:
  Scheduler* sched_;
  mutable std::mutex mu_;
  std::vector<Scheduler::WaitToken> waiters_;
};

}  // namespace mcrdl::sim
