// Virtual-time cooperative scheduler — the execution substrate for the whole
// simulated cluster.
//
// Model
// -----
// Every simulated rank (and nothing else) is an *actor*: a suspendable
// context that runs user code. The Scheduler owns one SerialBaton engine
// (serial_baton.h, DESIGN.md §4): every actor is a fiber on the thread that
// calls run(), and exactly one executes at any instant; a "baton" is handed
// from actor to actor by a direct context switch, so all simulated state is
// implicitly protected by the baton and every run is deterministic.
//
// Virtual time only advances when every actor is blocked: the engine drains
// the timed-event queue (device kernel completions, fusion timeouts, link
// transfers) until some actor becomes runnable again. If every live actor is
// blocked and no timed event is pending, the system has genuinely
// deadlocked; the scheduler wakes all actors with DeadlockError. This is the
// property that lets the mixed-backend tests distinguish naive
// synchronisation (which deadlocks) from MCR-DL's ordering (which doesn't).
//
// Threading contract: one Scheduler, and everything simulated on it, lives
// on one thread. Scheduler public methods are callable from actors or from
// timed-event callbacks (which run under the baton, between actors).
// Timed-event callbacks must not block. Code outside run() may only call
// spawn()/run(). No code may hold a host lock across a scheduler wait: every
// actor shares one OS thread, so the next actor to take that lock
// self-deadlocks. Independent Schedulers share nothing and may run on
// different threads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/serial_baton.h"

namespace mcrdl::sim {

class Scheduler {
 public:
  // Identifies one suspension of one actor; handed to wake sources.
  using WaitToken = sim::WaitToken;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers an actor. Must be called before run().
  void spawn(std::string name, std::function<void()> fn) {
    baton_.spawn(std::move(name), std::move(fn));
  }

  // Runs the actors spawned since the last run() until every one returns.
  // Rethrows the first actor exception (including DeadlockError) after all
  // actors have unwound.
  void run() { baton_.run(); }

  // Current virtual time in microseconds.
  SimTime now() const { return baton_.now(); }

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
  WaitToken prepare_wait() { return baton_.prepare_wait(); }
  void commit_wait() { baton_.commit_wait(); }
  bool try_wake(const WaitToken& token, WakeReason reason) {
    return baton_.try_wake(token, reason);
  }

  // --- timed events -------------------------------------------------------
  // Schedules fn at virtual time t (clamped to now if in the past). Returns
  // an id usable with cancel(). fn runs serialized with respect to all
  // actors and must not block.
  std::uint64_t schedule_at(SimTime t, std::function<void()> fn) {
    return baton_.schedule_at(t, std::move(fn));
  }
  std::uint64_t schedule_after(SimTime dt, std::function<void()> fn) {
    return baton_.schedule_at(now() + dt, std::move(fn));
  }
  // Cancels a pending event; no-op if it already fired.
  void cancel(std::uint64_t event_id) { baton_.cancel(event_id); }

  // Name of the calling actor ("" outside actor context).
  std::string current_actor_name() const { return baton_.current_actor_name(); }
  // Index of the current actor in spawn order (-1 outside actor context).
  int current_actor_id() const { return baton_.current_actor_id(); }
  bool running() const { return baton_.running(); }

  // Number of timed events that have fired so far (diagnostic).
  std::uint64_t events_fired() const { return baton_.events_fired(); }
  // Live (scheduled, not yet fired, not cancelled) timed events in the
  // queue. Cancelled tombstones are excluded: regression tests use this to
  // pin that cancel-heavy workloads (fusion flush timers) do not grow the
  // queue without bound.
  std::uint64_t pending_events() const { return baton_.pending_events(); }

 private:
  SerialBaton baton_;
};

// A condition variable in virtual time. wait() suspends the calling actor
// until another actor (or a timed event) calls notify_all(); the predicate
// overload re-checks after every wakeup.
class SimCondition {
 public:
  explicit SimCondition(Scheduler* sched) : sched_(sched) {}
  SimCondition(const SimCondition&) = delete;
  SimCondition& operator=(const SimCondition&) = delete;

  void wait();

  template <typename Pred>
  void wait(Pred pred) {
    while (!pred()) wait();
  }

  void notify_all();

  bool has_waiters() const { return !waiters_.empty(); }

 private:
  Scheduler* sched_;
  std::vector<Scheduler::WaitToken> waiters_;
};

}  // namespace mcrdl::sim
