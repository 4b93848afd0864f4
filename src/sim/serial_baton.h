// SerialBaton — the simulator's execution engine (DESIGN.md §4).
//
// Every actor is a fiber on a guard-paged stack borrowed from a StackPool
// (stack_pool.h) for the length of one run(), and all of them run on the
// thread that calls run(). Exactly one executes at any instant: a "baton" is
// handed from actor to actor by a direct, register-only fiber switch, so all
// simulated state is implicitly protected and every run is deterministic. Virtual time only advances when every actor is
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

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/ring_queue.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/stack_pool.h"

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

// A timed event's queue entry, ordered by (time, sequence) so that
// simultaneous events fire FIFO in scheduling order. Its callback lives in
// slot `slot` of the baton's slot table while that slot's generation still
// equals `gen`; a cancelled entry (a tombstone) finds the generation moved on.
struct QueuedEvent {
  SimTime t = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};
struct QueuedEventOrder {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;  // FIFO among simultaneous events
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
  // Actor stacks come from `stacks`, which must outlive the baton.
  explicit SerialBaton(StackPool* stacks) : stacks_(stacks) {}
  SerialBaton(const SerialBaton&) = delete;
  SerialBaton& operator=(const SerialBaton&) = delete;

  void spawn(std::string name, std::function<void()> fn);
  void run();
  SimTime now() const { return now_; }

  WaitToken prepare_wait();
  void commit_wait();
  bool try_wake(const WaitToken& token, WakeReason reason);

  // Event ids pack (generation << 32 | slot): a slot is recycled once its
  // event fired or its tombstone left the queue, and the generation moves on
  // at fire or cancel time, so cancelling a stale id is a no-op.
  std::uint64_t schedule_at(SimTime t, InlineFn fn);
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
    ~Fiber();  // returns the stack to its pool, if this fiber has one

    // The stack pointer mcrdl_sim_swap_stacks saved when this context last
    // switched away (serial_baton.cc); its registers sit on its own stack.
    void* sp = nullptr;
    // The borrowed stack's lowest usable address and the pool it goes back
    // to (both null for the caller).
    void* stack = nullptr;
    StackPool* pool = nullptr;
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

  static void fiber_entry(void* baton);
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
  bool is_tombstone(const detail::QueuedEvent& e) const { return slots_[e.slot].gen != e.gen; }
  // Retires a slot whose event fired or was cancelled: later ids naming it
  // are stale. Its callback must already have been moved out or reset.
  void retire_slot(std::uint32_t slot);

  std::vector<std::unique_ptr<detail::Actor>> actors_;
  // Actors joined by an earlier run(): never started again, but kept
  // allocated because stale wait tokens (a force-woken wait, a pending
  // sleep timer) may still point at them.
  std::vector<std::unique_ptr<detail::Actor>> retired_;
  StackPool* stacks_;
  // One fiber per actor of the current run(), indexed by actor id (its
  // position in actors_). Sized once per run(): each fiber holds a pooled
  // stack until run() clears the vector, and switch_fiber() holds references
  // into it.
  std::vector<Fiber> fibers_;
  Fiber caller_;
  RingQueue<detail::Actor*> run_queue_;
  std::priority_queue<detail::QueuedEvent, std::vector<detail::QueuedEvent>,
                      detail::QueuedEventOrder>
      events_;
  // Callback slots, recycled through free_slots_ once their queue entry is
  // gone (fired, or a popped or purged tombstone).
  struct EventSlot {
    InlineFn fn;
    std::uint32_t gen = 1;  // never 0, so no event id is 0
  };
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;

  detail::Actor* current_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  // Cancelled events still sitting in events_ as tombstones (their closures
  // are already freed at cancel time; their slots return at pop or purge).
  std::size_t cancelled_in_queue_ = 0;
  int live_actors_ = 0;
  bool running_ = false;
  bool aborting_ = false;
  std::string deadlock_message_;
  std::exception_ptr first_error_;
};

}  // namespace mcrdl::sim
