// ParallelShards — the concurrent execution engine (DESIGN.md §11).
//
// Actors are partitioned into S shards (actor id modulo S, fixed at run());
// each shard runs at most one of its actors at a time, but the S shards run
// concurrently on real cores. Virtual time advances under a conservative
// lockstep barrier driven by the controller thread (the run() caller):
//
//   event phase  — all shards quiescent. The controller drains due timed
//                  events serially in (time, seq) order — exactly the serial
//                  engine's order — until some actor becomes runnable, and
//                  advances the global clock as it goes. Wakes performed
//                  here only enqueue the actor on its owning shard.
//   actor phase  — the controller kicks every shard with runnable work and
//                  waits for global quiescence. Runnable actors execute
//                  concurrently (one per shard); cross-shard wakes post to
//                  the target's shard queue and start it immediately if the
//                  shard is idle. No timed event fires in this phase, so the
//                  clock is frozen: every actor in an epoch observes the
//                  same virtual instant, never one another shard hasn't
//                  reached.
//
// The phases alternate until no live actor remains. Because virtual
// timestamps in the cost model depend only on virtual time (never on which
// shard ran first), default-config traces are byte-identical to SerialBaton;
// tests/core/parallel_identity_test and the ci.sh scale smoke enforce this.
//
// Wait protocol difference vs the baton: between prepare_wait() and
// commit_wait() the actor keeps running while another shard may already
// deliver the wake. try_wake() records it as a pending wake (same
// generation check as ever) and commit_wait() consumes it without blocking —
// under the baton that window is atomic and the case cannot arise.
#pragma once

#include <atomic>
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

class ParallelShards final : public ExecutionModel {
 public:
  explicit ParallelShards(int threads);
  ~ParallelShards() override;
  ParallelShards(const ParallelShards&) = delete;
  ParallelShards& operator=(const ParallelShards&) = delete;

  void spawn(std::string name, std::function<void()> fn) override;
  void run() override;
  SimTime now() const override { return now_.load(std::memory_order_relaxed); }

  WaitToken prepare_wait() override;
  void commit_wait() override;
  bool try_wake(const WaitToken& token, WakeReason reason) override;

  std::uint64_t schedule_at(SimTime t, std::function<void()> fn) override;
  void cancel(std::uint64_t event_id) override;

  std::string current_actor_name() const override;
  int current_actor_id() const override;
  bool running() const override { return running_.load(std::memory_order_relaxed); }
  std::uint64_t events_fired() const override {
    return events_fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_events() const override;

  ExecutionModelKind kind() const override { return ExecutionModelKind::ParallelShards; }
  int shard_count() const override { return shard_count_; }
  std::uint64_t barrier_epochs() const override {
    return epochs_.load(std::memory_order_relaxed);
  }

 private:
  // One run queue + "shard baton": at most one of the shard's actors is
  // Running at any time (`running`), the rest queue FIFO.
  struct Shard {
    std::mutex mu;
    std::deque<detail::Actor*> run_queue;
    detail::Actor* running = nullptr;
  };

  void actor_main(detail::Actor* self);
  // Pops the next runnable actor of `s` (if any) into s.running and notifies
  // it. Called with s.mu held.
  static void hand_over_locked(Shard& s);
  // Runs one actor phase: kicks idle shards with queued work, then blocks
  // until every actor is blocked or done again.
  void actor_phase();
  // Fires due timed events in (t, seq) order until some actor becomes
  // runnable; declares deadlock if the queue drains with live actors left.
  void event_phase();
  void declare_deadlock();
  // Rebuilds events_ without its cancelled tombstones once they dominate the
  // queue; called with events_mu_ held.
  void maybe_purge_cancelled_locked();
  void record_error(std::exception_ptr err);
  void force_wake_all(WakeReason reason);
  void inc_active();
  void dec_active();
  int active() const;

  const int requested_threads_;
  int shard_count_ = 1;
  std::vector<std::unique_ptr<detail::Actor>> actors_;
  // Actors joined by an earlier run(); see SerialBaton::retired_.
  std::vector<std::unique_ptr<detail::Actor>> retired_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Timed-event queue; guarded by events_mu_ (actors schedule concurrently,
  // only the controller fires).
  mutable std::mutex events_mu_;
  std::priority_queue<std::shared_ptr<detail::TimedEvent>,
                      std::vector<std::shared_ptr<detail::TimedEvent>>, detail::TimedEventOrder>
      events_;
  std::map<std::uint64_t, std::weak_ptr<detail::TimedEvent>> events_by_id_;
  std::uint64_t next_event_seq_ = 0;
  // Cancelled events still sitting in events_ as tombstones (their closures
  // are already freed at cancel time); guarded by events_mu_.
  std::size_t cancelled_in_queue_ = 0;

  // Controller/quiescence bookkeeping. active_ counts actors that are
  // Running or Runnable; live_ counts actors that are not Done.
  mutable std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  int active_ = 0;
  int live_ = 0;

  // Error funnel (first failing actor wins, like the serial engine).
  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::string deadlock_message_;

  std::atomic<SimTime> now_{0.0};
  std::atomic<std::uint64_t> events_fired_{0};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> aborting_{false};
  // True only while the controller has handed execution to the shards; a
  // wake landing outside the actor phase must enqueue without starting the
  // actor (the controller kicks shards at the next phase start).
  std::atomic<bool> in_actor_phase_{false};
};

}  // namespace mcrdl::sim
