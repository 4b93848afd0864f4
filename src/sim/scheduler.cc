#include "src/sim/scheduler.h"

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
  waiters_.push_back(sched_->prepare_wait());
  sched_->commit_wait();
}

void SimCondition::notify_all() {
  // Stale tokens (actors force-woken earlier) fail the generation check
  // inside try_wake and are dropped harmlessly.
  std::vector<Scheduler::WaitToken> waiters;
  waiters.swap(waiters_);
  for (const auto& token : waiters) sched_->try_wake(token, WakeReason::Normal);
}

}  // namespace mcrdl::sim
