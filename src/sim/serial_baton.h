// SerialBaton — the simulator's execution engine (DESIGN.md §4).
//
// Every actor is a fiber: a ucontext with its own mmap'd, guard-paged stack,
// and all of them run on the thread that calls run(). Exactly one executes
// at any instant: a "baton" is handed from actor to actor by a direct
// context switch, so all simulated state is implicitly protected and every
// run is deterministic. Virtual time only advances when every actor is
// blocked: the blocking actor drains the timed event queue until some actor
// becomes runnable again; if none can, the system has genuinely deadlocked
// and every actor is woken with DeadlockError.
//
// Because all actors share one OS thread, no code may hold a host lock
// across a scheduler wait: the next actor to take it would self-deadlock.
//
// The Scheduler facade (scheduler.h) owns one SerialBaton and forwards to
// it; code outside src/sim talks to the Scheduler.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace mcrdl::sim {

// Reason an actor was made runnable again; Abort/Deadlock cause the wait
// primitive to throw once the actor regains control.
enum class WakeReason { Normal, Abort, Deadlock };

// Raised inside actors that are force-unwound because another actor failed.
class SimAborted : public Error {
 public:
  explicit SimAborted(const std::string& what) : Error(what) {}
};

namespace detail {

enum class ActorState { Runnable, Running, Blocked, Done };

struct Actor {
  Actor(std::string name_, std::function<void()> fn_, int id_)
      : name(std::move(name_)), fn(std::move(fn_)), id(id_) {}

  std::string name;
  std::function<void()> fn;
  // Index in spawn order among the actors of one run().
  int id = -1;
  ActorState state = ActorState::Runnable;
  WakeReason wake_reason = WakeReason::Normal;
  // Incremented on every suspension; wake sources capture the generation so
  // stale wakeups (cancelled timers, force-woken condition entries) are
  // rejected.
  std::uint64_t wait_gen = 0;
};

// A pending timed-event callback, ordered by (time, sequence) so that
// simultaneous events fire FIFO in scheduling order.
struct TimedEvent {
  SimTime t = 0.0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
  bool cancelled = false;
};
struct TimedEventOrder {
  bool operator()(const std::shared_ptr<TimedEvent>& a,
                  const std::shared_ptr<TimedEvent>& b) const {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;  // FIFO among simultaneous events
  }
};

}  // namespace detail

// Identifies one suspension of one actor; handed to wake sources.
struct WaitToken {
  detail::Actor* actor = nullptr;
  std::uint64_t gen = 0;
};

// See scheduler.h for the semantics of each operation; the Scheduler
// forwards one-to-one.
class SerialBaton {
 public:
  SerialBaton() = default;
  SerialBaton(const SerialBaton&) = delete;
  SerialBaton& operator=(const SerialBaton&) = delete;

  void spawn(std::string name, std::function<void()> fn);
  void run();
  SimTime now() const { return now_; }

  WaitToken prepare_wait();
  void commit_wait();
  bool try_wake(const WaitToken& token, WakeReason reason);

  std::uint64_t schedule_at(SimTime t, std::function<void()> fn);
  void cancel(std::uint64_t event_id);

  std::string current_actor_name() const;
  int current_actor_id() const;
  bool running() const { return running_; }
  std::uint64_t events_fired() const { return events_fired_; }
  std::uint64_t pending_events() const;

 private:
  // One execution context: an actor's fiber, or the run() caller's.
  struct Fiber {
    Fiber() = default;
    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;
    ~Fiber();  // unmaps the stack, if this fiber has one

    ucontext_t ctx{};
    // The whole stack mapping, guard page included (null for the caller).
    void* map = nullptr;
    std::size_t map_size = 0;
    // This context's copy of the thread's C++ exception state (libstdc++'s
    // __cxa_eh_globals), which is per thread, not per fiber.
    void* eh_caught = nullptr;
    unsigned int eh_uncaught = 0;
    // Sanitizer bookkeeping; unused in plain builds.
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
    void* asan_fake_stack = nullptr;
    void* tsan_fiber = nullptr;
  };

  static void fiber_entry(unsigned hi, unsigned lo);
  void actor_main();
  // Hands the baton onwards (or back to run()) when the current actor exits.
  [[noreturn]] void pass_baton_and_exit();
  // Saves `from`'s context and resumes `to`; returns when some other
  // context resumes `from`. An exiting fiber never returns from it.
  void switch_fiber(Fiber& from, Fiber& to, bool from_exits = false);
  Fiber& fiber_of(const detail::Actor* a) { return fibers_[static_cast<std::size_t>(a->id)]; }

  void force_wake_all(WakeReason reason);
  // Drains timed events until some actor is runnable; declares deadlock if
  // the system is exhausted while live actors remain blocked.
  void dispatch_until_runnable(bool exiting);
  void declare_deadlock();
  // Rebuilds events_ without its cancelled tombstones once they dominate the
  // queue.
  void maybe_purge_cancelled();

  std::vector<std::unique_ptr<detail::Actor>> actors_;
  // Actors joined by an earlier run(): never started again, but kept
  // allocated because stale wait tokens (a force-woken wait, a pending
  // sleep timer) may still point at them.
  std::vector<std::unique_ptr<detail::Actor>> retired_;
  // One fiber per actor of the current run(), indexed by actor id (its
  // position in actors_). Sized once before any context is captured, since
  // a ucontext_t points into itself and must not move.
  std::vector<Fiber> fibers_;
  Fiber caller_;
  std::deque<detail::Actor*> run_queue_;
  std::priority_queue<std::shared_ptr<detail::TimedEvent>,
                      std::vector<std::shared_ptr<detail::TimedEvent>>, detail::TimedEventOrder>
      events_;
  std::map<std::uint64_t, std::weak_ptr<detail::TimedEvent>> events_by_id_;

  detail::Actor* current_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  // Cancelled events still sitting in events_ as tombstones (their closures
  // are already freed at cancel time).
  std::size_t cancelled_in_queue_ = 0;
  int live_actors_ = 0;
  bool running_ = false;
  bool aborting_ = false;
  std::string deadlock_message_;
  std::exception_ptr first_error_;
};

}  // namespace mcrdl::sim
