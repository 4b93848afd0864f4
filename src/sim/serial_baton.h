// SerialBaton — the baton-passing execution engine (DESIGN.md §11).
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
// Because all actors share one OS thread, no code may hold a host mutex
// across a scheduler wait: the next actor to take it would self-deadlock, or
// silently re-enter a recursive_mutex.
//
// This engine is the golden-trace referee: ParallelShards must reproduce its
// default-config output byte for byte.
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

#include "src/sim/execution_model.h"

namespace mcrdl::sim {

class SerialBaton final : public ExecutionModel {
 public:
  SerialBaton() = default;
  SerialBaton(const SerialBaton&) = delete;
  SerialBaton& operator=(const SerialBaton&) = delete;

  void spawn(std::string name, std::function<void()> fn) override;
  void run() override;
  SimTime now() const override { return now_; }

  WaitToken prepare_wait() override;
  void commit_wait() override;
  bool try_wake(const WaitToken& token, WakeReason reason) override;

  std::uint64_t schedule_at(SimTime t, std::function<void()> fn) override;
  void cancel(std::uint64_t event_id) override;

  std::string current_actor_name() const override;
  int current_actor_id() const override;
  bool running() const override { return running_; }
  std::uint64_t events_fired() const override { return events_fired_; }
  std::uint64_t pending_events() const override;

  ExecutionModelKind kind() const override { return ExecutionModelKind::SerialBaton; }
  int shard_count() const override { return 1; }
  std::uint64_t barrier_epochs() const override { return 0; }

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
