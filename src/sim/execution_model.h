// The ExecutionModel seam (DESIGN.md §11): the Scheduler facade delegates to
// one of two interchangeable execution engines.
//
//   SerialBaton    — the baton-passing engine. Every actor is a fiber on
//                    the thread that calls run(), and exactly one executes
//                    at any instant; all simulated state is implicitly
//                    protected by the baton. This is the golden-trace
//                    referee and the default.
//   ParallelShards — actors are partitioned into per-shard run queues that
//                    execute concurrently. Virtual time advances in lockstep
//                    epochs: a serialized event phase (the controller thread
//                    drains due timed events) alternates with a concurrent
//                    actor phase (each shard runs at most one actor at a
//                    time) under a conservative barrier, so no actor ever
//                    observes a virtual clock ahead of another shard.
//
// Both engines speak the same wait-token protocol, so SimCondition, the
// device runtime, and the backends are engine-agnostic. The paper-facing
// contract is that default-config traces are byte-identical across engines
// (enforced by tests/core/parallel_identity_test and the ci.sh scale smoke).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/common/shard_slot.h"
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
  bool done = false;
  WakeReason wake_reason = WakeReason::Normal;
  // Incremented on every suspension; wake sources capture the generation so
  // stale wakeups (cancelled timers, force-woken condition entries) are
  // rejected.
  std::uint64_t wait_gen = 0;

  // --- ParallelShards only -----------------------------------------------
  // SerialBaton runs every actor as a fiber on the thread that calls run();
  // under shards each actor is an OS thread parked on its own cv.
  std::thread thread;
  std::condition_variable cv;
  // Owning shard (fixed at run(); actor id modulo shard count).
  int shard = 0;
  // True between prepare_wait() and commit_wait(). Under the serial engine
  // the baton makes that window atomic; under shards a concurrent waker that
  // hits the window records a pending wake instead of losing it.
  bool wait_prepared = false;
  bool pending_wake = false;
};

// A pending timed-event callback, ordered by (time, sequence) so that
// simultaneous events fire FIFO in scheduling order under both engines.
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

enum class ExecutionModelKind { SerialBaton, ParallelShards };

inline const char* execution_model_name(ExecutionModelKind kind) {
  return kind == ExecutionModelKind::SerialBaton ? "serial" : "parallel";
}

// How to execute the simulation. `threads` is the shard count and only
// matters for ParallelShards; it is clamped to [1, kMaxShards] and further
// to the actor count at run().
struct ExecutionConfig {
  ExecutionModelKind kind = ExecutionModelKind::SerialBaton;
  int threads = 1;

  static ExecutionConfig serial() { return {}; }
  static ExecutionConfig parallel(int threads) {
    ExecutionConfig cfg;
    cfg.kind = ExecutionModelKind::ParallelShards;
    cfg.threads = threads < 1 ? 1 : (threads > kMaxShards ? kMaxShards : threads);
    return cfg;
  }
  // Tool-facing: --threads N with N <= 1 means the serial referee.
  static ExecutionConfig from_threads(int threads) {
    return threads <= 1 ? serial() : parallel(threads);
  }

  std::string describe() const {
    if (kind == ExecutionModelKind::SerialBaton) return "serial (baton)";
    return "parallel (" + std::to_string(threads) + " shards)";
  }
};

// Engine interface behind the Scheduler facade. See scheduler.h for the
// semantics of each operation; the facade forwards one-to-one.
class ExecutionModel {
 public:
  virtual ~ExecutionModel() = default;

  virtual void spawn(std::string name, std::function<void()> fn) = 0;
  virtual void run() = 0;
  virtual SimTime now() const = 0;

  virtual WaitToken prepare_wait() = 0;
  virtual void commit_wait() = 0;
  virtual bool try_wake(const WaitToken& token, WakeReason reason) = 0;

  virtual std::uint64_t schedule_at(SimTime t, std::function<void()> fn) = 0;
  virtual void cancel(std::uint64_t event_id) = 0;

  virtual std::string current_actor_name() const = 0;
  virtual int current_actor_id() const = 0;
  virtual bool running() const = 0;
  virtual std::uint64_t events_fired() const = 0;
  // Live (scheduled, not yet fired, not cancelled) timed events currently in
  // the queue. Cancelled tombstones are excluded: regression tests use this
  // to pin that cancel-heavy workloads (fusion flush timers) do not grow the
  // queue without bound.
  virtual std::uint64_t pending_events() const = 0;

  virtual ExecutionModelKind kind() const = 0;
  // Number of concurrent shards (1 for the serial engine).
  virtual int shard_count() const = 0;
  // Number of distinct virtual instants the barrier has stepped through
  // (0 for the serial engine, which has no barrier).
  virtual std::uint64_t barrier_epochs() const = 0;
};

std::unique_ptr<ExecutionModel> make_execution_model(const ExecutionConfig& config);

}  // namespace mcrdl::sim
