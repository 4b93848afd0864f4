// SerialBaton — the original baton-passing execution engine (DESIGN.md §11).
//
// Every actor is an OS thread, but exactly one executes at any instant: a
// "baton" is handed from actor to actor, so all simulated state is
// implicitly protected and every run is deterministic. Virtual time only
// advances when every actor is blocked: the blocking actor drains the timed
// event queue until some actor becomes runnable again; if none can, the
// system has genuinely deadlocked and every actor is woken with
// DeadlockError.
//
// This engine is the golden-trace referee: ParallelShards must reproduce its
// default-config output byte for byte.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "src/sim/execution_model.h"

namespace mcrdl::sim {

class SerialBaton final : public ExecutionModel {
 public:
  SerialBaton() = default;
  ~SerialBaton() override;
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
  bool try_wake_locked(const WaitToken& token, WakeReason reason);
  void force_wake_all_locked(WakeReason reason);
  void actor_main(detail::Actor* self);
  // Hands the baton onwards when an actor exits; called with mu_ held.
  void pass_baton_and_exit(std::unique_lock<std::mutex>& lock);
  // Drains timed events until some actor is runnable; declares deadlock if
  // the system is exhausted while live actors remain blocked.
  void dispatch_until_runnable_locked(std::unique_lock<std::mutex>& lock, bool exiting);
  void declare_deadlock_locked();
  // Rebuilds events_ without its cancelled tombstones once they dominate the
  // queue; called with mu_ held.
  void maybe_purge_cancelled_locked();

  mutable std::mutex mu_;
  std::condition_variable main_cv_;

  std::vector<std::unique_ptr<detail::Actor>> actors_;
  // Actors joined by an earlier run(): never started again, but kept
  // allocated because stale wait tokens (a force-woken wait, a pending
  // sleep timer) may still point at them.
  std::vector<std::unique_ptr<detail::Actor>> retired_;
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
