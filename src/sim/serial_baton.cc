#include "src/sim/serial_baton.h"

#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "src/common/logging.h"

#if !defined(__x86_64__)
#error "fiber switch is x86-64 only: port mcrdl_sim_swap_stacks and its trampoline below"
#endif

// The fiber switch, in the x86-64 System V ABI. mcrdl_sim_swap_stacks(save,
// load) pushes the callee-saved registers (rbp, rbx, r12-r15) and the
// callee-saved control state (MXCSR, x87 control word) onto the current stack,
// stores the stack pointer through `save`, switches to the stack pointer
// `load`, and pops the same set from there. The caller-saved registers need no
// saving: to the compiler this is an ordinary call. It makes no syscall and
// leaves the signal mask alone. Returning into another stack does not work
// under CET shadow stacks; a process that enables them needs a port too.
//
// A fiber's first switch pops the frame run() built: rbx holds the baton,
// r12 the entry function, and the return address is mcrdl_sim_fiber_start,
// which calls entry(baton). Its CFI marks the return address undefined, so
// unwinders and sanitizer backtraces stop there.
asm(R"(
        .text
        .p2align 4
        .globl  mcrdl_sim_swap_stacks
        .hidden mcrdl_sim_swap_stacks
        .type   mcrdl_sim_swap_stacks, @function
mcrdl_sim_swap_stacks:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        popq    %r14
        .cfi_adjust_cfa_offset -8
        popq    %r13
        .cfi_adjust_cfa_offset -8
        popq    %r12
        .cfi_adjust_cfa_offset -8
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size   mcrdl_sim_swap_stacks, .-mcrdl_sim_swap_stacks

        .p2align 4
        .globl  mcrdl_sim_fiber_start
        .hidden mcrdl_sim_fiber_start
        .type   mcrdl_sim_fiber_start, @function
mcrdl_sim_fiber_start:
        .cfi_startproc
        .cfi_undefined rip
        movq    %rbx, %rdi
        call    *%r12
        ud2
        .cfi_endproc
        .size   mcrdl_sim_fiber_start, .-mcrdl_sim_fiber_start
)");

extern "C" {
void mcrdl_sim_swap_stacks(void** save, void* load);
void mcrdl_sim_fiber_start();
}

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

// The frame mcrdl_sim_swap_stacks pops, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;
  void* r12 = nullptr;
  void* rbx = nullptr;
  void* rbp = nullptr;
  void* ret = nullptr;
};
static_assert(sizeof(SwitchFrame) == 64);

// Builds a fiber's first frame at the top of its stack and returns the stack
// pointer that resumes it in mcrdl_sim_fiber_start. The frame ends at the
// 16-byte-aligned top, so the trampoline's call enters `entry` with the
// alignment the ABI requires. MXCSR and the x87 control word start as the
// thread's.
void* initial_stack_pointer(void* stack_top, void (*entry)(void*), void* arg) {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  const auto top = reinterpret_cast<std::uintptr_t>(stack_top) & ~std::uintptr_t{15};
  return new (reinterpret_cast<void*>(top - sizeof(SwitchFrame)))
      SwitchFrame{.mxcsr = mxcsr,
                  .x87_cw = x87_cw,
                  .r12 = reinterpret_cast<void*>(entry),
                  .rbx = arg,
                  .ret = reinterpret_cast<void*>(&mcrdl_sim_fiber_start)};
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
  fibers_ = std::vector<Fiber>(actors_.size());
  for (auto& a : actors_) {
    Fiber& f = fiber_of(a.get());
    f.stack = stacks_->acquire();
    f.pool = stacks_;
    f.stack_bottom = f.stack;
    f.stack_size = StackPool::stack_size();
    f.sp = initial_stack_pointer(static_cast<char*>(f.stack) + f.stack_size,
                                 &SerialBaton::fiber_entry, this);
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

  // The last actor switched back here; no fiber stack is in use any more,
  // so each goes back to the pool.
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
  if (stack == nullptr) return;
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
  pool->release(stack);
}

void SerialBaton::fiber_entry(void* baton) { static_cast<SerialBaton*>(baton)->actor_main(); }

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
  mcrdl_sim_swap_stacks(&from.sp, to.sp);
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
    while (!events_.empty() && is_tombstone(events_.top())) {
      free_slots_.push_back(events_.top().slot);
      events_.pop();
      --cancelled_in_queue_;
    }
    if (!events_.empty()) {
      const detail::QueuedEvent ev = events_.top();
      events_.pop();
      // Moved out first: the callback may schedule events that reuse the
      // slot or grow the table.
      InlineFn fn = std::move(slots_[ev.slot].fn);
      retire_slot(ev.slot);
      free_slots_.push_back(ev.slot);
      now_ = std::max(now_, ev.t);
      ++events_fired_;
      fn();  // runs under the baton; may wake actors / schedule events
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

std::uint64_t SerialBaton::schedule_at(SimTime t, InlineFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  EventSlot& s = slots_[slot];
  s.fn = std::move(fn);
  events_.push(detail::QueuedEvent{std::max(t, now_), next_event_seq_++, slot, s.gen});
  return (std::uint64_t{s.gen} << 32) | slot;
}

void SerialBaton::retire_slot(std::uint32_t slot) {
  std::uint32_t& gen = slots_[slot].gen;
  if (++gen == 0) gen = 1;
}

void SerialBaton::cancel(std::uint64_t event_id) {
  const auto slot = static_cast<std::uint32_t>(event_id);
  const auto gen = static_cast<std::uint32_t>(event_id >> 32);
  // Fired, already cancelled, or never issued: nothing to do.
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;
  // Free the closure now — tombstones in the priority queue must not pin
  // captured state (Works, tensors) until their deadline passes. It is
  // destroyed last, once the queue is consistent, in case its captures'
  // destructors schedule or cancel events.
  InlineFn discarded = std::move(slots_[slot].fn);
  retire_slot(slot);
  ++cancelled_in_queue_;
  maybe_purge_cancelled();
}

std::uint64_t SerialBaton::pending_events() const { return events_.size() - cancelled_in_queue_; }

void SerialBaton::maybe_purge_cancelled() {
  // Tombstones surface cheaply at the queue head during normal dispatch;
  // only rebuild when they are both numerous and the majority, so cancel
  // stays amortized O(log n) on cancel-heavy workloads (fusion flush timers)
  // without pathological queue growth in between.
  if (cancelled_in_queue_ <= 64 || cancelled_in_queue_ * 2 <= events_.size()) return;
  std::vector<detail::QueuedEvent> live;
  live.reserve(events_.size() - cancelled_in_queue_);
  while (!events_.empty()) {
    if (is_tombstone(events_.top())) {
      free_slots_.push_back(events_.top().slot);
    } else {
      live.push_back(events_.top());
    }
    events_.pop();
  }
  for (const detail::QueuedEvent& ev : live) events_.push(ev);
  cancelled_in_queue_ = 0;
}

std::string SerialBaton::current_actor_name() const {
  return current_ != nullptr ? current_->name : std::string();
}

int SerialBaton::current_actor_id() const { return current_ != nullptr ? current_->id : -1; }

}  // namespace mcrdl::sim
