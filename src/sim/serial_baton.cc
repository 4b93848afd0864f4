#include "src/sim/serial_baton.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "src/common/logging.h"

namespace mcrdl::sim {
namespace {

// libstdc++'s layout of __cxa_eh_globals (unwind-cxx.h), which <cxxabi.h>
// declares but does not define: the caught-exception chain that `throw;` and
// std::current_exception() read, and the std::uncaught_exceptions() count.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

EhGlobals* eh_globals() { return reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals()); }

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// The stack an actor had when it was a pthread: RLIMIT_STACK, or glibc's
// 2 MiB default when that is unlimited.
std::size_t actor_stack_size() {
  static const std::size_t size = [] {
    std::size_t bytes = std::size_t{2} << 20;
    rlimit limit{};
    if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur != RLIM_INFINITY) {
      bytes = static_cast<std::size_t>(limit.rlim_cur);
    }
    bytes = std::max(bytes, static_cast<std::size_t>(PTHREAD_STACK_MIN));
    const std::size_t page = page_size();
    return (bytes + page - 1) / page * page;
  }();
  return size;
}

}  // namespace

// ---------------------------------------------------------------------------
// Actor lifecycle
// ---------------------------------------------------------------------------

void SerialBaton::spawn(std::string name, std::function<void()> fn) {
  MCRDL_CHECK(!running_) << "spawn() after run() started";
  actors_.push_back(std::make_unique<detail::Actor>(std::move(name), std::move(fn),
                                                    static_cast<int>(actors_.size())));
}

void SerialBaton::run() {
  MCRDL_CHECK(!running_) << "run() called twice";
  MCRDL_CHECK(!actors_.empty()) << "run() with no actors";
  running_ = true;
  live_actors_ = static_cast<int>(actors_.size());
  const std::size_t guard = page_size();
  const std::size_t stack = actor_stack_size();
  const auto baton = reinterpret_cast<std::uintptr_t>(this);
  fibers_ = std::vector<Fiber>(actors_.size());
  for (auto& a : actors_) {
    Fiber& f = fiber_of(a.get());
    f.map_size = guard + stack;
    f.map = mmap(nullptr, f.map_size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (f.map == MAP_FAILED) f.map = nullptr;
    MCRDL_CHECK(f.map != nullptr) << "cannot map a stack for actor " << a->name;
    MCRDL_CHECK(mprotect(f.map, guard, PROT_NONE) == 0) << "cannot guard a fiber stack";
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = static_cast<char*>(f.map) + guard;
    f.ctx.uc_stack.ss_size = stack;
    f.ctx.uc_link = nullptr;
    f.stack_bottom = f.ctx.uc_stack.ss_sp;
    f.stack_size = stack;
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&SerialBaton::fiber_entry), 2,
                static_cast<unsigned>(baton >> 32), static_cast<unsigned>(baton));
#if defined(__SANITIZE_THREAD__)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
    run_queue_.push_back(a.get());
  }
  caller_.stack_bottom = nullptr;  // learnt by the first fiber (ASan)
#if defined(__SANITIZE_THREAD__)
  caller_.tsan_fiber = __tsan_get_current_fiber();
#endif
  current_ = run_queue_.front();
  run_queue_.pop_front();
  switch_fiber(caller_, fiber_of(current_));

  // The last actor switched back here; no fiber stack is in use any more.
  MCRDL_CHECK(live_actors_ == 0) << live_actors_ << " actors left suspended";
  fibers_.clear();
  for (auto& a : actors_) retired_.push_back(std::move(a));
  actors_.clear();
  running_ = false;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

SerialBaton::Fiber::~Fiber() {
  if (map == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  // Frames still live when the fiber switched away for the last time leave
  // their redzones poisoned; a later mapping at this address must not
  // inherit them.
  ASAN_UNPOISON_MEMORY_REGION(map, map_size);
#endif
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
  munmap(map, map_size);
}

void SerialBaton::fiber_entry(unsigned hi, unsigned lo) {
  reinterpret_cast<SerialBaton*>((std::uintptr_t{hi} << 32) | lo)->actor_main();
}

void SerialBaton::actor_main() {
#if defined(__SANITIZE_ADDRESS__)
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  if (caller_.stack_bottom == nullptr) {
    caller_.stack_bottom = from_bottom;
    caller_.stack_size = from_size;
  }
#endif
  detail::Actor* self = current_;
  self->state = detail::ActorState::Running;
  const bool skip = aborting_ || self->wake_reason != WakeReason::Normal;
  try {
    if (!skip) self->fn();
  } catch (const SimAborted&) {
    // Unwound because another actor already failed; not the root cause.
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
    aborting_ = true;
    force_wake_all(WakeReason::Abort);
  }
  --live_actors_;
  pass_baton_and_exit();
}

void SerialBaton::pass_baton_and_exit() {
  detail::Actor* self = current_;
  MCRDL_CHECK(self != nullptr);
  self->state = detail::ActorState::Done;
  current_ = nullptr;
  Fiber* next = &caller_;
  if (live_actors_ > 0) {
    dispatch_until_runnable(/*exiting=*/true);
    if (!run_queue_.empty()) {
      current_ = run_queue_.front();
      run_queue_.pop_front();
      next = &fiber_of(current_);
    }
  }
  switch_fiber(fiber_of(self), *next, /*from_exits=*/true);
  std::abort();  // nothing resumes an exited fiber
}

void SerialBaton::switch_fiber(Fiber& from, Fiber& to, [[maybe_unused]] bool from_exits) {
  EhGlobals* eh = eh_globals();
  from.eh_caught = eh->caught_exceptions;
  from.eh_uncaught = eh->uncaught_exceptions;
  eh->caught_exceptions = to.eh_caught;
  eh->uncaught_exceptions = to.eh_uncaught;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack, to.stack_bottom,
                                 to.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  swapcontext(&from.ctx, &to.ctx);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(from.asan_fake_stack, nullptr, nullptr);
#endif
}

// ---------------------------------------------------------------------------
// Wait/wake machinery
// ---------------------------------------------------------------------------

WaitToken SerialBaton::prepare_wait() {
  MCRDL_CHECK(current_ != nullptr) << "prepare_wait outside actor context";
  detail::Actor* self = current_;
  ++self->wait_gen;
  return WaitToken{self, self->wait_gen};
}

bool SerialBaton::try_wake(const WaitToken& token, WakeReason reason) {
  detail::Actor* a = token.actor;
  if (a->state != detail::ActorState::Blocked || a->wait_gen != token.gen) return false;
  a->state = detail::ActorState::Runnable;
  a->wake_reason = reason;
  run_queue_.push_back(a);
  return true;
}

void SerialBaton::force_wake_all(WakeReason reason) {
  for (auto& a : actors_) {
    if (a->state == detail::ActorState::Blocked) {
      try_wake(WaitToken{a.get(), a->wait_gen}, reason);
    }
  }
}

void SerialBaton::commit_wait() {
  detail::Actor* self = current_;
  MCRDL_CHECK(self != nullptr) << "commit_wait outside actor context";
  current_ = nullptr;
  self->state = detail::ActorState::Blocked;

  dispatch_until_runnable(/*exiting=*/false);

  MCRDL_CHECK(!run_queue_.empty());
  detail::Actor* next = run_queue_.front();
  run_queue_.pop_front();
  current_ = next;
  if (next != self) switch_fiber(fiber_of(self), fiber_of(next));
  self->state = detail::ActorState::Running;
  WakeReason reason = self->wake_reason;
  self->wake_reason = WakeReason::Normal;
  if (reason == WakeReason::Deadlock) throw DeadlockError(deadlock_message_);
  if (reason == WakeReason::Abort || aborting_) {
    throw SimAborted("simulation aborted: another actor failed");
  }
}

void SerialBaton::dispatch_until_runnable(bool exiting) {
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
      ev->fn();  // runs under the baton; may wake actors / schedule events
      continue;
    }
    if (exiting && live_actors_ == 0) return;
    // Live actors exist, none runnable, no pending events: deadlock.
    declare_deadlock();
    return;
  }
}

void SerialBaton::declare_deadlock() {
  std::ostringstream msg;
  msg << "virtual-time deadlock at t=" << now_ << "us; blocked actors:";
  for (auto& a : actors_) {
    if (a->state == detail::ActorState::Blocked) msg << " " << a->name;
  }
  deadlock_message_ = msg.str();
  MCRDL_LOG_WARN << deadlock_message_;
  if (!first_error_) first_error_ = std::make_exception_ptr(DeadlockError(deadlock_message_));
  aborting_ = true;
  force_wake_all(WakeReason::Deadlock);
}

// ---------------------------------------------------------------------------
// Timed events and introspection
// ---------------------------------------------------------------------------

std::uint64_t SerialBaton::schedule_at(SimTime t, std::function<void()> fn) {
  auto ev = std::make_shared<detail::TimedEvent>();
  ev->t = std::max(t, now_);
  ev->seq = next_event_seq_++;
  ev->fn = std::move(fn);
  events_.push(ev);
  events_by_id_[ev->seq] = ev;
  return ev->seq;
}

void SerialBaton::cancel(std::uint64_t event_id) {
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
  maybe_purge_cancelled();
}

std::uint64_t SerialBaton::pending_events() const { return events_.size() - cancelled_in_queue_; }

void SerialBaton::maybe_purge_cancelled() {
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
  return current_ != nullptr ? current_->name : std::string();
}

int SerialBaton::current_actor_id() const { return current_ != nullptr ? current_->id : -1; }

}  // namespace mcrdl::sim
