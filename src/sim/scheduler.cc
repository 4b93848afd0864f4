#include "src/sim/scheduler.h"

#include <utility>

namespace mcrdl::sim {

// ---------------------------------------------------------------------------
// Actor-side primitives
// ---------------------------------------------------------------------------

void Scheduler::sleep_until(SimTime t) {
  WaitToken token = prepare_wait();
  schedule_at(t, [this, token] { try_wake(token, WakeReason::Normal); });
  commit_wait();
}

void Scheduler::yield() { sleep_until(now()); }

// ---------------------------------------------------------------------------
// SimCondition
// ---------------------------------------------------------------------------

void SimCondition::wait() {
  Waiter self;
  self.token = sched_->prepare_wait();
  self.prev = tail_;
  self.linked = true;
  (tail_ != nullptr ? tail_->next : head_) = &self;
  tail_ = &self;
  struct Unlink {
    SimCondition* cond;
    Waiter* waiter;
    ~Unlink() { cond->unlink(*waiter); }
  } unlink_on_exit{this, &self};
  sched_->commit_wait();
}

void SimCondition::unlink(Waiter& w) {
  if (!w.linked) return;
  (w.prev != nullptr ? w.prev->next : head_) = w.next;
  (w.next != nullptr ? w.next->prev : tail_) = w.prev;
  w.linked = false;
}

void SimCondition::notify_all() {
  // try_wake only queues the actor, so every node stays alive (its actor is
  // still suspended) while the list is walked. Tokens of actors that some
  // other source woke first fail the generation check harmlessly.
  Waiter* w = std::exchange(head_, nullptr);
  tail_ = nullptr;
  while (w != nullptr) {
    Waiter* next = w->next;
    w->linked = false;
    sched_->try_wake(w->token, WakeReason::Normal);
    w = next;
  }
}

}  // namespace mcrdl::sim
