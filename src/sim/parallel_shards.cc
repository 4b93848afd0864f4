#include "src/sim/parallel_shards.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace mcrdl::sim {

namespace {

// Which engine+actor the calling thread belongs to. Actor threads of one
// ParallelShards instance never execute code of another, but engines can
// nest (a tool's outer scheduler hosting an inner cluster), so the engine
// pointer disambiguates.
struct ThreadContext {
  ParallelShards* engine = nullptr;
  detail::Actor* actor = nullptr;
};
thread_local ThreadContext t_ctx;

}  // namespace

ParallelShards::ParallelShards(int threads)
    : requested_threads_(std::max(1, std::min(threads, kMaxShards))) {}

ParallelShards::~ParallelShards() {
  for (auto& a : actors_) {
    if (a->thread.joinable()) a->thread.join();
  }
}

void ParallelShards::spawn(std::string name, std::function<void()> fn) {
  MCRDL_CHECK(!running_.load()) << "spawn() after run() started";
  actors_.push_back(std::make_unique<detail::Actor>(std::move(name), std::move(fn),
                                                    static_cast<int>(actors_.size())));
}

// ---------------------------------------------------------------------------
// Controller loop
// ---------------------------------------------------------------------------

void ParallelShards::run() {
  MCRDL_CHECK(!running_.load()) << "run() called twice";
  MCRDL_CHECK(!actors_.empty()) << "run() with no actors";
  running_.store(true);

  shard_count_ = std::min(requested_threads_, static_cast<int>(actors_.size()));
  shards_.clear();
  for (int i = 0; i < shard_count_; ++i) shards_.push_back(std::make_unique<Shard>());
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    live_ = static_cast<int>(actors_.size());
    active_ = live_;
  }
  for (auto& a : actors_) {
    a->shard = a->id % shard_count_;
    shards_[a->shard]->run_queue.push_back(a.get());
  }
  for (auto& a : actors_) {
    a->thread = std::thread([this, actor = a.get()] { actor_main(actor); });
  }

  for (;;) {
    if (active() > 0) actor_phase();
    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      if (live_ == 0) break;
    }
    event_phase();
  }

  for (auto& a : actors_) {
    a->thread.join();
    a->shard = 0;  // every run has a shard 0 for a stale token to lock
    retired_.push_back(std::move(a));
  }
  actors_.clear();
  running_.store(false);
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ParallelShards::actor_phase() {
  in_actor_phase_.store(true);
  for (auto& sp : shards_) {
    Shard& s = *sp;
    detail::Actor* start = nullptr;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.running == nullptr && !s.run_queue.empty()) {
        s.running = s.run_queue.front();
        s.run_queue.pop_front();
        start = s.running;
      }
    }
    if (start != nullptr) start->cv.notify_one();
  }
  {
    std::unique_lock<std::mutex> lk(ctl_mu_);
    ctl_cv_.wait(lk, [&] { return active_ == 0; });
  }
  in_actor_phase_.store(false);
}

void ParallelShards::event_phase() {
  for (;;) {
    std::shared_ptr<detail::TimedEvent> ev;
    {
      std::lock_guard<std::mutex> lk(events_mu_);
      while (!events_.empty() && events_.top()->cancelled) {
        events_.pop();
        --cancelled_in_queue_;
      }
      if (!events_.empty()) {
        ev = events_.top();
        events_.pop();
        events_by_id_.erase(ev->seq);
      }
    }
    if (!ev) {
      // Live actors exist, none runnable, no pending events: deadlock.
      declare_deadlock();
      return;
    }
    if (ev->t > now_.load(std::memory_order_relaxed)) {
      now_.store(ev->t, std::memory_order_relaxed);
      epochs_.fetch_add(1, std::memory_order_relaxed);
    }
    events_fired_.fetch_add(1, std::memory_order_relaxed);
    try {
      ev->fn();  // serialized on the controller; may wake actors / schedule events
    } catch (const SimAborted&) {
    } catch (...) {
      record_error(std::current_exception());
      aborting_.store(true);
      force_wake_all(WakeReason::Abort);
    }
    // Drain the whole virtual instant before handing control back: every
    // event due at now_ fires (still serialized, in (t,seq) order) so all
    // actors waking at this instant enter the same actor phase and run
    // concurrently. Returning at the first wake instead would run them one
    // per phase — correct, but with no parallelism to speak of.
    if (active() > 0) {
      std::lock_guard<std::mutex> lk(events_mu_);
      while (!events_.empty() && events_.top()->cancelled) {
        events_.pop();
        --cancelled_in_queue_;
      }
      if (events_.empty() ||
          events_.top()->t > now_.load(std::memory_order_relaxed)) {
        return;
      }
    }
  }
}

void ParallelShards::declare_deadlock() {
  std::ostringstream msg;
  msg << "virtual-time deadlock at t=" << now_.load() << "us; blocked actors:";
  for (auto& a : actors_) {
    std::lock_guard<std::mutex> lk(shards_[a->shard]->mu);
    if (a->state == detail::ActorState::Blocked) msg << " " << a->name;
  }
  std::string text = msg.str();
  MCRDL_LOG_WARN << text;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    deadlock_message_ = text;
    if (!first_error_) first_error_ = std::make_exception_ptr(DeadlockError(text));
  }
  aborting_.store(true);
  force_wake_all(WakeReason::Deadlock);
}

void ParallelShards::record_error(std::exception_ptr err) {
  std::lock_guard<std::mutex> lk(err_mu_);
  if (!first_error_) first_error_ = err;
}

void ParallelShards::force_wake_all(WakeReason reason) {
  for (auto& a : actors_) {
    WaitToken token;
    {
      std::lock_guard<std::mutex> lk(shards_[a->shard]->mu);
      if (a->state != detail::ActorState::Blocked) continue;
      token = WaitToken{a.get(), a->wait_gen};
    }
    try_wake(token, reason);
  }
}

// ---------------------------------------------------------------------------
// Actor lifecycle
// ---------------------------------------------------------------------------

void ParallelShards::actor_main(detail::Actor* self) {
  set_shard_slot(self->shard + 1);
  Shard& s = *shards_[self->shard];
  bool skip = false;
  {
    std::unique_lock<std::mutex> lk(s.mu);
    self->cv.wait(lk, [&] { return s.running == self; });
    self->state = detail::ActorState::Running;
    skip = aborting_.load() || self->wake_reason != WakeReason::Normal;
    self->wake_reason = WakeReason::Normal;
  }
  t_ctx = ThreadContext{this, self};
  try {
    if (!skip) self->fn();
  } catch (const SimAborted&) {
    // Unwound because another actor already failed; not the root cause.
  } catch (...) {
    record_error(std::current_exception());
    aborting_.store(true);
    force_wake_all(WakeReason::Abort);
  }
  t_ctx = ThreadContext{};
  {
    std::lock_guard<std::mutex> lk(s.mu);
    self->state = detail::ActorState::Done;
    self->done = true;
    hand_over_locked(s);
  }
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    --live_;
    if (--active_ == 0) ctl_cv_.notify_all();
  }
}

void ParallelShards::hand_over_locked(Shard& s) {
  detail::Actor* next = nullptr;
  if (!s.run_queue.empty()) {
    next = s.run_queue.front();
    s.run_queue.pop_front();
  }
  s.running = next;
  if (next != nullptr) next->cv.notify_one();
}

// ---------------------------------------------------------------------------
// Wait/wake machinery
// ---------------------------------------------------------------------------

WaitToken ParallelShards::prepare_wait() {
  MCRDL_CHECK(t_ctx.engine == this && t_ctx.actor != nullptr)
      << "prepare_wait outside actor context";
  detail::Actor* self = t_ctx.actor;
  std::lock_guard<std::mutex> lk(shards_[self->shard]->mu);
  ++self->wait_gen;
  self->wait_prepared = true;
  self->pending_wake = false;
  return WaitToken{self, self->wait_gen};
}

void ParallelShards::commit_wait() {
  MCRDL_CHECK(t_ctx.engine == this && t_ctx.actor != nullptr)
      << "commit_wait outside actor context";
  detail::Actor* self = t_ctx.actor;
  Shard& s = *shards_[self->shard];
  WakeReason reason = WakeReason::Normal;
  {
    std::unique_lock<std::mutex> lk(s.mu);
    self->wait_prepared = false;
    if (self->pending_wake) {
      // The wake arrived between prepare and commit; consume it in place.
      self->pending_wake = false;
      reason = self->wake_reason;
      self->wake_reason = WakeReason::Normal;
    } else {
      self->state = detail::ActorState::Blocked;
      hand_over_locked(s);
      lk.unlock();
      dec_active();
      lk.lock();
      self->cv.wait(lk, [&] { return s.running == self; });
      self->state = detail::ActorState::Running;
      reason = self->wake_reason;
      self->wake_reason = WakeReason::Normal;
    }
  }
  if (reason == WakeReason::Deadlock) {
    std::string message;
    {
      std::lock_guard<std::mutex> lk(err_mu_);
      message = deadlock_message_;
    }
    throw DeadlockError(message);
  }
  if (reason == WakeReason::Abort || aborting_.load()) {
    throw SimAborted("simulation aborted: another actor failed");
  }
}

bool ParallelShards::try_wake(const WaitToken& token, WakeReason reason) {
  detail::Actor* a = token.actor;
  Shard& s = *shards_[a->shard];
  detail::Actor* start = nullptr;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (a->wait_gen != token.gen) return false;
    if (a->state == detail::ActorState::Blocked) {
      a->state = detail::ActorState::Runnable;
      a->wake_reason = reason;
      inc_active();
      if (in_actor_phase_.load() && s.running == nullptr) {
        // The shard is idle mid-phase: start the actor right away instead of
        // parking it until the next barrier.
        s.running = a;
        start = a;
      } else {
        s.run_queue.push_back(a);
      }
    } else if (a->wait_prepared && !a->pending_wake) {
      a->pending_wake = true;
      a->wake_reason = reason;
    } else {
      return false;
    }
  }
  if (start != nullptr) start->cv.notify_one();
  return true;
}

void ParallelShards::inc_active() {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  ++active_;
}

void ParallelShards::dec_active() {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  if (--active_ == 0) ctl_cv_.notify_all();
}

int ParallelShards::active() const {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  return active_;
}

// ---------------------------------------------------------------------------
// Timed events and introspection
// ---------------------------------------------------------------------------

std::uint64_t ParallelShards::schedule_at(SimTime t, std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(events_mu_);
  auto ev = std::make_shared<detail::TimedEvent>();
  ev->t = std::max(t, now_.load(std::memory_order_relaxed));
  ev->seq = next_event_seq_++;
  ev->fn = std::move(fn);
  events_.push(ev);
  events_by_id_[ev->seq] = ev;
  return ev->seq;
}

void ParallelShards::cancel(std::uint64_t event_id) {
  std::lock_guard<std::mutex> lk(events_mu_);
  auto it = events_by_id_.find(event_id);
  if (it == events_by_id_.end()) return;
  if (auto ev = it->second.lock()) {
    ev->cancelled = true;
    // Free the closure now — tombstones in the priority queue must not pin
    // captured state (Works, tensors) until their deadline passes.
    ev->fn = nullptr;
    ++cancelled_in_queue_;
  }
  events_by_id_.erase(it);
  maybe_purge_cancelled_locked();
}

std::uint64_t ParallelShards::pending_events() const {
  std::lock_guard<std::mutex> lk(events_mu_);
  return events_.size() - cancelled_in_queue_;
}

void ParallelShards::maybe_purge_cancelled_locked() {
  // Tombstones surface cheaply at the queue head during the event phase;
  // only rebuild when they are both numerous and the majority, so cancel
  // stays amortized O(log n) on cancel-heavy workloads (fusion flush timers)
  // without pathological queue growth in between.
  if (cancelled_in_queue_ <= 64 || cancelled_in_queue_ * 2 <= events_.size()) return;
  std::vector<std::shared_ptr<detail::TimedEvent>> live;
  live.reserve(events_.size() - cancelled_in_queue_);
  while (!events_.empty()) {
    if (!events_.top()->cancelled) live.push_back(events_.top());
    events_.pop();
  }
  for (auto& ev : live) events_.push(std::move(ev));
  cancelled_in_queue_ = 0;
}

std::string ParallelShards::current_actor_name() const {
  if (t_ctx.engine == this && t_ctx.actor != nullptr) return t_ctx.actor->name;
  return std::string();
}

int ParallelShards::current_actor_id() const {
  if (t_ctx.engine == this && t_ctx.actor != nullptr) return t_ctx.actor->id;
  return -1;
}

}  // namespace mcrdl::sim
