#include "src/sim/serial_baton.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace mcrdl::sim {

// ---------------------------------------------------------------------------
// Actor lifecycle
// ---------------------------------------------------------------------------

SerialBaton::~SerialBaton() {
  for (auto& a : actors_) {
    if (a->thread.joinable()) a->thread.join();
  }
}

void SerialBaton::spawn(std::string name, std::function<void()> fn) {
  MCRDL_CHECK(!running_) << "spawn() after run() started";
  actors_.push_back(std::make_unique<detail::Actor>(std::move(name), std::move(fn),
                                                    static_cast<int>(actors_.size())));
}

void SerialBaton::run() {
  MCRDL_CHECK(!running_) << "run() called twice";
  MCRDL_CHECK(!actors_.empty()) << "run() with no actors";
  {
    std::unique_lock<std::mutex> lock(mu_);
    running_ = true;
    live_actors_ = static_cast<int>(actors_.size());
    for (auto& a : actors_) {
      a->thread = std::thread([this, actor = a.get()] { actor_main(actor); });
      run_queue_.push_back(a.get());
    }
    current_ = run_queue_.front();
    run_queue_.pop_front();
    current_->cv.notify_one();
    main_cv_.wait(lock, [&] { return live_actors_ == 0; });
  }
  for (auto& a : actors_) {
    a->thread.join();
    retired_.push_back(std::move(a));
  }
  actors_.clear();
  running_ = false;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void SerialBaton::actor_main(detail::Actor* self) {
  bool skip = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    self->cv.wait(lock, [&] { return current_ == self; });
    self->state = detail::ActorState::Running;
    skip = aborting_ || self->wake_reason != WakeReason::Normal;
  }
  try {
    if (!skip) self->fn();
  } catch (const SimAborted&) {
    // Unwound because another actor already failed; not the root cause.
  } catch (...) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
    aborting_ = true;
    force_wake_all_locked(WakeReason::Abort);
  }
  std::unique_lock<std::mutex> lock(mu_);
  self->done = true;
  --live_actors_;
  pass_baton_and_exit(lock);
}

// ---------------------------------------------------------------------------
// Wait/wake machinery
// ---------------------------------------------------------------------------

WaitToken SerialBaton::prepare_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  MCRDL_CHECK(current_ != nullptr) << "prepare_wait outside actor context";
  detail::Actor* self = current_;
  ++self->wait_gen;
  return WaitToken{self, self->wait_gen};
}

bool SerialBaton::try_wake(const WaitToken& token, WakeReason reason) {
  std::unique_lock<std::mutex> lock(mu_);
  return try_wake_locked(token, reason);
}

bool SerialBaton::try_wake_locked(const WaitToken& token, WakeReason reason) {
  detail::Actor* a = token.actor;
  if (a->state != detail::ActorState::Blocked || a->wait_gen != token.gen) return false;
  a->state = detail::ActorState::Runnable;
  a->wake_reason = reason;
  run_queue_.push_back(a);
  return true;
}

void SerialBaton::force_wake_all_locked(WakeReason reason) {
  for (auto& a : actors_) {
    if (a->state == detail::ActorState::Blocked) {
      try_wake_locked(WaitToken{a.get(), a->wait_gen}, reason);
    }
  }
}

void SerialBaton::commit_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  detail::Actor* self = current_;
  MCRDL_CHECK(self != nullptr) << "commit_wait outside actor context";
  current_ = nullptr;
  self->state = detail::ActorState::Blocked;

  dispatch_until_runnable_locked(lock, /*exiting=*/false);

  MCRDL_CHECK(!run_queue_.empty());
  detail::Actor* next = run_queue_.front();
  run_queue_.pop_front();
  if (next != self) {
    current_ = next;
    next->cv.notify_one();
    self->cv.wait(lock, [&] { return current_ == self; });
  } else {
    current_ = self;
  }
  self->state = detail::ActorState::Running;
  WakeReason reason = self->wake_reason;
  self->wake_reason = WakeReason::Normal;
  if (reason == WakeReason::Deadlock) {
    lock.unlock();
    throw DeadlockError(deadlock_message_);
  }
  if (reason == WakeReason::Abort || aborting_) {
    lock.unlock();
    throw SimAborted("simulation aborted: another actor failed");
  }
}

void SerialBaton::pass_baton_and_exit(std::unique_lock<std::mutex>& lock) {
  detail::Actor* self = current_;
  MCRDL_CHECK(self != nullptr);
  self->state = detail::ActorState::Done;
  current_ = nullptr;
  if (live_actors_ == 0) {
    main_cv_.notify_all();
    return;
  }
  dispatch_until_runnable_locked(lock, /*exiting=*/true);
  if (run_queue_.empty()) {
    // Every remaining actor vanished during dispatch (cannot normally
    // happen, but keep the main thread from hanging).
    main_cv_.notify_all();
    return;
  }
  detail::Actor* next = run_queue_.front();
  run_queue_.pop_front();
  current_ = next;
  next->cv.notify_one();
}

void SerialBaton::dispatch_until_runnable_locked(std::unique_lock<std::mutex>& lock,
                                                 bool exiting) {
  for (;;) {
    if (!run_queue_.empty()) return;
    while (!events_.empty() && events_.top()->cancelled) {
      events_.pop();
      --cancelled_in_queue_;
    }
    if (!events_.empty()) {
      auto ev = events_.top();
      events_.pop();
      events_by_id_.erase(ev->seq);
      now_ = std::max(now_, ev->t);
      ++events_fired_;
      lock.unlock();
      ev->fn();  // runs under the baton; may wake actors / schedule events
      lock.lock();
      continue;
    }
    if (exiting && live_actors_ == 0) return;
    // Live actors exist, none runnable, no pending events: deadlock.
    declare_deadlock_locked();
    return;
  }
}

void SerialBaton::declare_deadlock_locked() {
  std::ostringstream msg;
  msg << "virtual-time deadlock at t=" << now_ << "us; blocked actors:";
  for (auto& a : actors_) {
    if (a->state == detail::ActorState::Blocked) msg << " " << a->name;
  }
  deadlock_message_ = msg.str();
  MCRDL_LOG_WARN << deadlock_message_;
  if (!first_error_) first_error_ = std::make_exception_ptr(DeadlockError(deadlock_message_));
  aborting_ = true;
  force_wake_all_locked(WakeReason::Deadlock);
}

// ---------------------------------------------------------------------------
// Timed events and introspection
// ---------------------------------------------------------------------------

std::uint64_t SerialBaton::schedule_at(SimTime t, std::function<void()> fn) {
  std::unique_lock<std::mutex> lock(mu_);
  auto ev = std::make_shared<detail::TimedEvent>();
  ev->t = std::max(t, now_);
  ev->seq = next_event_seq_++;
  ev->fn = std::move(fn);
  events_.push(ev);
  events_by_id_[ev->seq] = ev;
  return ev->seq;
}

void SerialBaton::cancel(std::uint64_t event_id) {
  std::unique_lock<std::mutex> lock(mu_);
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

std::uint64_t SerialBaton::pending_events() const {
  std::unique_lock<std::mutex> lock(mu_);
  return events_.size() - cancelled_in_queue_;
}

void SerialBaton::maybe_purge_cancelled_locked() {
  // Tombstones surface cheaply at the queue head during normal dispatch;
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

std::string SerialBaton::current_actor_name() const {
  std::unique_lock<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->name : std::string();
}

int SerialBaton::current_actor_id() const {
  std::unique_lock<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->id : -1;
}

}  // namespace mcrdl::sim
