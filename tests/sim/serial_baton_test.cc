// Engine tests: the scheduler contract the SerialBaton engine implements.
// Covers the edge cases a change to the engine is most likely to disturb —
// cancel-after-fire, FIFO ordering of simultaneous timed events, stale
// wait-token rejection, and deadlock detection — plus cross-time ordering.
// The engine runs its actors as fibers on one thread, so the suite also pins
// what a fiber must keep per actor (C++ exception state, the floating-point
// control state, an ABI-aligned thread-sized stack) and what happens to the
// stacks between runs: a scheduler's runs reuse them, each keeps its guard
// page, and they are unmapped when their pool goes.
#include <gtest/gtest.h>

#include <xmmintrin.h>

#include <array>
#include <cfenv>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/sim/scheduler.h"

namespace mcrdl::sim {
namespace {

// One line of /proc/self/maps: the range [lo, hi) and its permissions.
struct Mapping {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string perms;
  bool contains(const void* addr) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return lo <= a && a < hi;
  }
};

// The mapping that contains `addr`, if any. Actors record their frame
// address to find the stack they ran on.
std::optional<Mapping> mapping_of(const void* addr) {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    Mapping m;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &m.lo, &m.hi, perms) == 3) {
      m.perms = perms;
      if (m.contains(addr)) return m;
    }
  }
  return std::nullopt;
}

bool is_mapped(const void* addr) { return mapping_of(addr).has_value(); }

TEST(SerialBaton, ActorsRunAndTimeAdvances) {
  Scheduler sched;
  int ran = 0;
  SimTime a_end = -1.0, b_end = -1.0;
  sched.spawn("a", [&] {
    sched.sleep_for(10.0);
    a_end = sched.now();
    ++ran;
  });
  sched.spawn("b", [&] {
    sched.sleep_for(25.0);
    b_end = sched.now();
    ++ran;
  });
  sched.run();
  EXPECT_EQ(ran, 2);
  EXPECT_DOUBLE_EQ(a_end, 10.0);
  EXPECT_DOUBLE_EQ(b_end, 25.0);
  EXPECT_DOUBLE_EQ(sched.now(), 25.0);
}

TEST(SerialBaton, CrossTimeOrderingIsPreserved) {
  Scheduler sched;
  std::vector<std::string> trace;
  sched.spawn("a", [&] {
    sched.sleep_for(10.0);
    trace.push_back("a@10");
    sched.sleep_for(20.0);
    trace.push_back("a@30");
  });
  sched.spawn("b", [&] {
    sched.sleep_for(20.0);
    trace.push_back("b@20");
  });
  sched.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "a@10");
  EXPECT_EQ(trace[1], "b@20");
  EXPECT_EQ(trace[2], "a@30");
}

TEST(SerialBaton, SimultaneousTimedEventsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn("a", [&] {
    for (int i = 0; i < 5; ++i) {
      sched.schedule_at(50.0, [&order, i] { order.push_back(i); });
    }
    sched.sleep_until(60.0);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SerialBaton, CancelAfterFireIsANoOp) {
  Scheduler sched;
  int fired = 0;
  std::uint64_t id = 0;
  sched.spawn("a", [&] {
    id = sched.schedule_at(5.0, [&] { ++fired; });
    sched.sleep_until(10.0);  // the event has fired by the time we wake
    sched.cancel(id);         // must not throw or un-fire it
    sched.cancel(id);         // double-cancel is also a no-op
    sched.sleep_until(20.0);
  });
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(SerialBaton, CancelBeforeFireSuppressesTheEvent) {
  Scheduler sched;
  int fired = 0;
  sched.spawn("a", [&] {
    const std::uint64_t id = sched.schedule_at(100.0, [&] { ++fired; });
    sched.cancel(id);
    sched.sleep_until(200.0);
  });
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(SerialBaton, StaleWaitTokenIsRejected) {
  Scheduler sched;
  bool stale_result = true;
  bool fresh_result = false;
  sched.spawn("a", [&] {
    // First suspension: the timed event wakes it with a live token.
    Scheduler::WaitToken first = sched.prepare_wait();
    sched.schedule_at(10.0, [&sched, first, &fresh_result] {
      fresh_result = sched.try_wake(first, WakeReason::Normal);
    });
    sched.commit_wait();
    // `first` now identifies a completed suspension. A wake source still
    // holding it must be refused — otherwise it would corrupt the next wait.
    sched.schedule_at(20.0, [&sched, first, &stale_result] {
      stale_result = sched.try_wake(first, WakeReason::Normal);
    });
    sched.sleep_until(30.0);
  });
  sched.run();
  EXPECT_TRUE(fresh_result);
  EXPECT_FALSE(stale_result);
}

TEST(SerialBaton, SecondWakeOnSameTokenIsRejected) {
  Scheduler sched;
  int accepted = 0;
  sched.spawn("a", [&] {
    Scheduler::WaitToken token = sched.prepare_wait();
    sched.schedule_at(10.0, [&sched, token, &accepted] {
      if (sched.try_wake(token, WakeReason::Normal)) ++accepted;
      if (sched.try_wake(token, WakeReason::Normal)) ++accepted;  // duplicate
    });
    sched.commit_wait();
  });
  sched.run();
  EXPECT_EQ(accepted, 1);
}

// The stacks are checked once the scheduler, and with it the pool that kept
// them for reuse, is gone: the deadlock path leaks none.
TEST(SerialBaton, DeadlockIsDetectedAndNamesBlockedActors) {
  int deadlocked = 0;
  const std::array<const char*, 2> names{"alpha", "beta"};
  std::array<const void*, 2> frames{};
  {
    Scheduler sched;
    SimCondition never(&sched);
    for (std::size_t i = 0; i < names.size(); ++i) {
      sched.spawn(names[i], [&, i] {
        frames[i] = __builtin_frame_address(0);
        try {
          never.wait();
          ADD_FAILURE() << "wait returned without a wake";
        } catch (const DeadlockError& e) {
          ++deadlocked;
          EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
          EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos);
          throw;
        }
      });
    }
    EXPECT_THROW(sched.run(), DeadlockError);
  }
  EXPECT_EQ(deadlocked, 2);
  for (const void* frame : frames) EXPECT_FALSE(is_mapped(frame)) << "fiber stack left mapped";
}

TEST(SerialBaton, DeadlockAfterProgressReportsCurrentTime) {
  Scheduler sched;
  SimCondition never(&sched);
  sched.spawn("worker", [&] {
    sched.sleep_for(42.0);
    never.wait();
  });
  try {
    sched.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("t=42"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(sched.now(), 42.0);
}

TEST(SerialBaton, ConditionWakesAllWaiters) {
  Scheduler sched;
  SimCondition cond(&sched);
  bool go = false;
  int woke = 0;
  for (int i = 0; i < 4; ++i) {
    sched.spawn(std::string("w").append(std::to_string(i)), [&] {
      cond.wait([&] { return go; });
      ++woke;
    });
  }
  sched.spawn("signaller", [&] {
    sched.sleep_for(15.0);
    go = true;
    cond.notify_all();
  });
  sched.run();
  EXPECT_EQ(woke, 4);
}

// As above, the stack is checked once the scheduler and its pool are gone.
TEST(SerialBaton, ActorExceptionPropagatesFromRun) {
  struct Unwound {
    bool* flag;
    ~Unwound() { *flag = true; }
  };
  bool bystander_unwound = false;
  const void* boom_frame = nullptr;
  {
    Scheduler sched;
    sched.spawn("boom", [&] {
      boom_frame = __builtin_frame_address(0);
      sched.sleep_for(5.0);
      throw std::runtime_error("actor failed");
    });
    sched.spawn("bystander", [&] {
      Unwound guard{&bystander_unwound};
      sched.sleep_for(500.0);
    });
    try {
      sched.run();
      FAIL() << "expected the actor's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "actor failed");
    }
  }
  EXPECT_TRUE(bystander_unwound) << "the bystander must unwind, not be abandoned";
  EXPECT_FALSE(is_mapped(boom_frame)) << "fiber stack left mapped";
}

TEST(SerialBaton, CurrentActorNameInsideAndOutside) {
  Scheduler sched;
  std::string inside;
  sched.spawn("the-actor", [&] { inside = sched.current_actor_name(); });
  sched.run();
  EXPECT_EQ(inside, "the-actor");
  EXPECT_EQ(sched.current_actor_name(), "");
  EXPECT_EQ(sched.current_actor_id(), -1);
}

TEST(SerialBaton, ManyActorsManySleepsStress) {
  Scheduler sched;
  constexpr int kActors = 12;
  constexpr int kRounds = 40;
  int done = 0;
  for (int a = 0; a < kActors; ++a) {
    sched.spawn(std::string("s").append(std::to_string(a)), [&, a] {
      for (int r = 0; r < kRounds; ++r) sched.sleep_for(1.0 + (a % 3));
      ++done;
    });
  }
  sched.run();
  EXPECT_EQ(done, kActors);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0 * kRounds);  // slowest actor: 3us rounds
}

TEST(SerialBaton, SecondRunRunsOnlyNewlySpawnedActors) {
  Scheduler sched;
  int a_runs = 0, b_runs = 0;
  sched.spawn("a", [&] {
    sched.sleep_for(3.0);
    ++a_runs;
  });
  sched.run();
  sched.spawn("b", [&] {
    sched.sleep_for(5.0);
    ++b_runs;
  });
  sched.run();
  EXPECT_EQ(a_runs, 1) << "a joined actor must not run again in a later run()";
  EXPECT_EQ(b_runs, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 8.0);
}

// libstdc++ keeps the caught-exception chain and the uncaught count per
// thread, and actors share one thread. A suspends inside its handler
// while B is first mid-unwind (t=10), then inside its own handler (t=30); A's
// `throw;` must still rethrow A's exception, and neither actor may see the
// other's exception in flight.
TEST(SerialBaton, ExceptionStateIsPerActor) {
  struct ErrorA {};
  struct ErrorB {};
  struct SleepWhileUnwinding {
    Scheduler* sched;
    int* uncaught;
    ~SleepWhileUnwinding() {
      *uncaught = std::uncaught_exceptions();
      sched->sleep_until(15.0);
    }
  };
  Scheduler sched;
  int a_uncaught_mid = -1, a_uncaught_late = -1, b_uncaught_unwinding = -1,
      b_uncaught_handler = -1;
  bool a_rethrew_own = false, b_rethrew_own = false;
  sched.spawn("a", [&] {
    try {
      throw ErrorA{};
    } catch (const ErrorA&) {
      sched.sleep_until(10.0);
      a_uncaught_mid = std::uncaught_exceptions();
      sched.sleep_until(30.0);
      a_uncaught_late = std::uncaught_exceptions();
      try {
        throw;
      } catch (const ErrorA&) {
        a_rethrew_own = true;
      } catch (...) {
      }
    }
  });
  sched.spawn("b", [&] {
    sched.sleep_until(5.0);
    try {
      SleepWhileUnwinding guard{&sched, &b_uncaught_unwinding};
      throw ErrorB{};
    } catch (const ErrorB&) {
      sched.sleep_until(40.0);
      b_uncaught_handler = std::uncaught_exceptions();
      try {
        throw;
      } catch (const ErrorB&) {
        b_rethrew_own = true;
      } catch (...) {
      }
    }
  });
  sched.run();
  EXPECT_TRUE(a_rethrew_own);
  EXPECT_TRUE(b_rethrew_own);
  EXPECT_EQ(a_uncaught_mid, 0);
  EXPECT_EQ(a_uncaught_late, 0);
  EXPECT_EQ(b_uncaught_unwinding, 1);
  EXPECT_EQ(b_uncaught_handler, 0);
}

// 1/3 in the current SSE rounding mode (volatile, so it is computed now).
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

// The rounding mode lives in MXCSR (SSE) and the x87 control word, both of
// which a fiber switch saves per actor. A peer entered for the first time
// starts with the thread's mode as of run(), not the setter's; the setter
// gets its own mode back after a wait, and run()'s caller keeps its own.
TEST(SerialBaton, FloatingPointControlStateIsPerActor) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  Scheduler sched;
  int setter_mode_after_wait = -1, peer_mode_first = -1, peer_mode_after_wait = -1;
  double setter_third = 0.0, peer_third_first = 0.0, peer_third_after_wait = 0.0;
  sched.spawn("setter", [&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    sched.sleep_until(10.0);
    setter_mode_after_wait = std::fegetround();
    setter_third = one_third();
    std::fesetround(FE_TONEAREST);
  });
  sched.spawn("peer", [&] {
    peer_mode_first = std::fegetround();
    peer_third_first = one_third();
    sched.sleep_until(5.0);
    peer_mode_after_wait = std::fegetround();
    peer_third_after_wait = one_third();
  });
  std::fesetround(FE_TONEAREST);
  sched.run();
  EXPECT_EQ(peer_mode_first, FE_TONEAREST);
  EXPECT_EQ(peer_mode_after_wait, FE_TONEAREST);
  EXPECT_EQ(peer_third_first, nearest);
  EXPECT_EQ(peer_third_after_wait, nearest);
  EXPECT_EQ(setter_mode_after_wait, FE_UPWARD);
  EXPECT_GT(setter_third, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), nearest);
}

// Misaligned by 8 bytes, an actor's stack would put this alignas(16) local
// off a 16-byte boundary and the movaps of _mm_store_ps would fault; check
// on first entry and again on a stack resumed after a wait.
[[gnu::noinline]] std::uintptr_t aligned_store_misalignment(float value) {
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, _mm_set1_ps(value));
  asm volatile("" : : "r"(lanes) : "memory");
  EXPECT_EQ(lanes[0] + lanes[3], 2.0f * value);
  return reinterpret_cast<std::uintptr_t>(lanes) % 16;
}

TEST(SerialBaton, ActorsRunOn16ByteAlignedStacks) {
  Scheduler sched;
  std::vector<std::uintptr_t> misalignments;
  for (int i = 0; i < 2; ++i) {
    sched.spawn(std::string("a").append(std::to_string(i)), [&, i] {
      alignas(16) volatile unsigned char local[16] = {};
      misalignments.push_back(reinterpret_cast<std::uintptr_t>(&local[0]) % 16);
      misalignments.push_back(aligned_store_misalignment(1.0f + i));
      sched.sleep_for(1.0);
      misalignments.push_back(aligned_store_misalignment(3.0f + i));
      misalignments.push_back(reinterpret_cast<std::uintptr_t>(&local[0]) % 16);
    });
  }
  sched.run();
  ASSERT_EQ(misalignments.size(), 8u);
  for (std::uintptr_t m : misalignments) EXPECT_EQ(m, 0u);
}

// Actors keep the stack depth they had as threads: a 1 MiB frame that stays
// live across a suspension must fit.
TEST(SerialBaton, ActorStackHoldsAMebibyteAcrossAWait) {
  Scheduler sched;
  std::uint64_t sum = 0;
  sched.spawn("deep", [&] {
    std::array<volatile unsigned char, std::size_t{1} << 20> buf;
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i);
    sched.sleep_for(1.0);
    for (std::size_t i = 0; i < buf.size(); ++i) sum += buf[i];
  });
  sched.run();
  EXPECT_EQ(sum, std::uint64_t{4096} * (255 * 256 / 2));
}

// 2048 actors pass a token round a ring twice, each handoff a SimCondition
// wait plus a 1us sleep, so the run ends at exactly one microsecond per hop.
TEST(SerialFibers, TwoThousandActorRingHandsOffInOrder) {
  constexpr int kActors = 2048;
  constexpr int kLaps = 2;
  Scheduler sched;
  std::vector<std::unique_ptr<SimCondition>> turn_changed;
  for (int i = 0; i < kActors; ++i) turn_changed.push_back(std::make_unique<SimCondition>(&sched));
  int turn = 0;
  for (int i = 0; i < kActors; ++i) {
    sched.spawn(std::string("r").append(std::to_string(i)), [&, i] {
      for (int lap = 0; lap < kLaps; ++lap) {
        const int mine = lap * kActors + i;
        turn_changed[i]->wait([&] { return turn == mine; });
        sched.sleep_for(1.0);
        ++turn;
        turn_changed[(i + 1) % kActors]->notify_all();
      }
    });
  }
  sched.run();
  EXPECT_EQ(turn, kActors * kLaps);
  EXPECT_DOUBLE_EQ(sched.now(), 1.0 * kActors * kLaps);
}

// A scheduler keeps its actor stacks for its next run(): every stack of the
// second run is one the first run mapped, and none was unmapped in between.
TEST(SerialFibers, RunsOfOneSchedulerReuseTheirStacks) {
  constexpr std::size_t kActors = 3;
  Scheduler sched;
  std::array<std::array<const void*, kActors>, 2> frames{};
  std::vector<Mapping> first_run;
  for (std::size_t r = 0; r < frames.size(); ++r) {
    for (std::size_t i = 0; i < kActors; ++i) {
      sched.spawn("run" + std::to_string(r) + "." + std::to_string(i), [&, r, i] {
        frames[r][i] = __builtin_frame_address(0);
        sched.sleep_for(1.0);
      });
    }
    sched.run();
    for (const void* frame : frames[r]) {
      const std::optional<Mapping> m = mapping_of(frame);
      ASSERT_TRUE(m.has_value()) << "run " << r << " unmapped an actor stack";
      if (r == 0) first_run.push_back(*m);
    }
  }
  for (const void* frame : frames[1]) {
    bool reused = false;
    for (const Mapping& m : first_run) reused = reused || m.contains(frame);
    EXPECT_TRUE(reused) << "the second run mapped a stack of its own";
  }
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
}

TEST(SerialFibers, DestroyingThePoolUnmapsEveryStack) {
  std::array<const void*, 3> frames{};
  {
    Scheduler sched;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      sched.spawn(std::string("a").append(std::to_string(i)), [&, i] {
        frames[i] = __builtin_frame_address(0);
        sched.sleep_for(1.0);
      });
    }
    sched.run();
    for (const void* frame : frames) EXPECT_TRUE(is_mapped(frame)) << "pooled stack unmapped";
  }
  for (const void* frame : frames) EXPECT_FALSE(is_mapped(frame)) << "fiber stack left mapped";
}

TEST(SerialFibers, ReusedStackKeepsItsGuardPage) {
  Scheduler sched;
  std::array<const void*, 2> frames{};
  std::optional<Mapping> stack;
  std::optional<Mapping> below;
  for (std::size_t r = 0; r < frames.size(); ++r) {
    sched.spawn("run" + std::to_string(r), [&, r] {
      frames[r] = __builtin_frame_address(0);
      if (r == 0) return;
      stack = mapping_of(frames[r]);
      if (stack) below = mapping_of(reinterpret_cast<const void*>(stack->lo - 1));
    });
    sched.run();
  }
  ASSERT_TRUE(stack.has_value());
  EXPECT_TRUE(stack->contains(frames[0])) << "the second run did not reuse the stack";
  ASSERT_TRUE(below.has_value()) << "nothing mapped below the stack";
  EXPECT_EQ(below->perms, "---p");
  EXPECT_EQ(below->hi, stack->lo);
}

constexpr std::size_t kDeepFrame = std::size_t{64} << 10;

// Fills a frame of 64 KiB, keeps it live across a wait, then sums it.
[[gnu::noinline]] std::uint64_t deep_frame_sum(Scheduler& sched) {
  std::array<volatile unsigned char, kDeepFrame> buf;
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i);
  sched.sleep_for(1.0);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) sum += buf[i];
  return sum;
}

// A reused stack must carry no sanitizer state from its last fiber. Under
// ASan the first run leaves the deep frame's span poisoned, as a frame that
// never returned would, and the second run must find that span clean before
// its own deep frame lands there. Under detect_stack_use_after_return each
// fiber also has a fake stack of its own.
TEST(SerialFibers, DeepFrameRunsTwiceOnAReusedStack) {
  Scheduler sched;
  std::array<const void*, 2> frames{};
  std::array<std::uint64_t, 2> sums{};
  const void* stale_poison = nullptr;
  for (std::size_t r = 0; r < frames.size(); ++r) {
    sched.spawn("deep" + std::to_string(r), [&, r] {
      frames[r] = __builtin_frame_address(0);
      [[maybe_unused]] char* const deep =
          static_cast<char*>(__builtin_frame_address(0)) - kDeepFrame - 4096;
#if defined(__SANITIZE_ADDRESS__)
      if (r == 1) stale_poison = __asan_region_is_poisoned(deep, kDeepFrame);
#endif
      sums[r] = deep_frame_sum(sched);
#if defined(__SANITIZE_ADDRESS__)
      if (r == 0) ASAN_POISON_MEMORY_REGION(deep, kDeepFrame);
#endif
    });
    sched.run();
  }
  EXPECT_EQ(frames[0], frames[1]) << "the second run did not reuse the stack";
  EXPECT_EQ(stale_poison, nullptr) << "the reused stack kept its last fiber's poison";
  for (std::uint64_t sum : sums) EXPECT_EQ(sum, std::uint64_t{256} * (255 * 256 / 2));
}

}  // namespace
}  // namespace mcrdl::sim
