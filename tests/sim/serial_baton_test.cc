// Engine tests: the scheduler contract the SerialBaton engine implements.
// Covers the edge cases a change to the engine is most likely to disturb —
// cancel-after-fire, FIFO ordering of simultaneous timed events, stale
// wait-token rejection, and deadlock detection — plus cross-time ordering.
// The engine runs its actors as fibers on one thread, so the suite also pins
// what a fiber must keep per actor (C++ exception state, a thread-sized
// stack) and that every run() frees the stacks it mapped.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/scheduler.h"

namespace mcrdl::sim {
namespace {

// True if some mapping in /proc/self/maps contains `addr`. Actors record their frame address to check that run() unmapped their stacks.
bool is_mapped(const void* addr) {
  std::ifstream maps("/proc/self/maps");
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::string line;
  while (std::getline(maps, line)) {
    std::uintptr_t lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2 && lo <= a &&
        a < hi) {
      return true;
    }
  }
  return false;
}

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

TEST(SerialBaton, DeadlockIsDetectedAndNamesBlockedActors) {
  Scheduler sched;
  SimCondition never(&sched);
  int deadlocked = 0;
  const std::array<const char*, 2> names{"alpha", "beta"};
  std::array<const void*, 2> frames{};
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
    sched.spawn("w" + std::to_string(i), [&] {
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

TEST(SerialBaton, ActorExceptionPropagatesFromRun) {
  Scheduler sched;
  struct Unwound {
    bool* flag;
    ~Unwound() { *flag = true; }
  };
  bool bystander_unwound = false;
  const void* boom_frame = nullptr;
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
    sched.spawn("s" + std::to_string(a), [&, a] {
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
    sched.spawn("r" + std::to_string(i), [&, i] {
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

TEST(SerialFibers, EachRunUnmapsItsActorStacks) {
  Scheduler sched;
  for (int r = 0; r < 2; ++r) {
    const void* frame = nullptr;
    bool mapped_while_running = false;
    sched.spawn("run" + std::to_string(r), [&] {
      frame = __builtin_frame_address(0);
      sched.sleep_for(1.0);
      mapped_while_running = is_mapped(frame);
    });
    sched.run();
    EXPECT_TRUE(mapped_while_running);
    EXPECT_FALSE(is_mapped(frame)) << "run " << r << " left its actor stack mapped";
  }
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
}

}  // namespace
}  // namespace mcrdl::sim
