// Execution-model seam tests: the same scheduler contract exercised under
// both engines (SerialBaton and ParallelShards). Covers the edge cases the
// refactor is most likely to disturb — cancel-after-fire, FIFO ordering of
// simultaneous timed events, stale wait-token rejection, and deadlock
// detection — plus the cross-time ordering guarantees both engines share.
// The serial engine runs its actors as fibers on one thread, so the suite
// also pins what a fiber must keep per actor (C++ exception state, a
// thread-sized stack) and that every run() frees the stacks it mapped.
//
// Under ParallelShards, actors that are runnable at the same virtual instant
// execute concurrently, so these tests only assert orderings across distinct
// virtual times (which both engines guarantee) and guard any state shared by
// same-instant actors with a mutex.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/scheduler.h"

namespace mcrdl::sim {
namespace {

class ExecutionModelTest : public ::testing::TestWithParam<ExecutionConfig> {
 protected:
  ExecutionConfig config() const { return GetParam(); }
};

std::string config_name(const ::testing::TestParamInfo<ExecutionConfig>& info) {
  return info.param.kind == ExecutionModelKind::SerialBaton
             ? "serial"
             : "parallel" + std::to_string(info.param.threads);
}

bool is_serial(const ExecutionConfig& config) {
  return config.kind == ExecutionModelKind::SerialBaton;
}

// True if some mapping in /proc/self/maps contains `addr`. Serial actors
// record their frame address to check that run() unmapped their stacks.
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

TEST_P(ExecutionModelTest, ActorsRunAndTimeAdvances) {
  Scheduler sched(config());
  std::atomic<int> ran{0};
  SimTime a_end = -1.0, b_end = -1.0;
  sched.spawn("a", [&] {
    sched.sleep_for(10.0);
    a_end = sched.now();
    ran.fetch_add(1);
  });
  sched.spawn("b", [&] {
    sched.sleep_for(25.0);
    b_end = sched.now();
    ran.fetch_add(1);
  });
  sched.run();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_DOUBLE_EQ(a_end, 10.0);
  EXPECT_DOUBLE_EQ(b_end, 25.0);
  EXPECT_DOUBLE_EQ(sched.now(), 25.0);
}

TEST_P(ExecutionModelTest, CrossTimeOrderingIsPreserved) {
  Scheduler sched(config());
  std::mutex mu;
  std::vector<std::string> trace;
  const auto push = [&](const std::string& s) {
    std::lock_guard<std::mutex> lock(mu);
    trace.push_back(s);
  };
  sched.spawn("a", [&] {
    sched.sleep_for(10.0);
    push("a@10");
    sched.sleep_for(20.0);
    push("a@30");
  });
  sched.spawn("b", [&] {
    sched.sleep_for(20.0);
    push("b@20");
  });
  sched.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "a@10");
  EXPECT_EQ(trace[1], "b@20");
  EXPECT_EQ(trace[2], "a@30");
}

TEST_P(ExecutionModelTest, SimultaneousTimedEventsFireFifo) {
  Scheduler sched(config());
  std::vector<int> order;  // events fire serialized in both engines
  sched.spawn("a", [&] {
    for (int i = 0; i < 5; ++i) {
      sched.schedule_at(50.0, [&order, i] { order.push_back(i); });
    }
    sched.sleep_until(60.0);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(ExecutionModelTest, CancelAfterFireIsANoOp) {
  Scheduler sched(config());
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

TEST_P(ExecutionModelTest, CancelBeforeFireSuppressesTheEvent) {
  Scheduler sched(config());
  int fired = 0;
  sched.spawn("a", [&] {
    const std::uint64_t id = sched.schedule_at(100.0, [&] { ++fired; });
    sched.cancel(id);
    sched.sleep_until(200.0);
  });
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST_P(ExecutionModelTest, StaleWaitTokenIsRejected) {
  Scheduler sched(config());
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

TEST_P(ExecutionModelTest, SecondWakeOnSameTokenIsRejected) {
  Scheduler sched(config());
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

TEST_P(ExecutionModelTest, DeadlockIsDetectedAndNamesBlockedActors) {
  Scheduler sched(config());
  SimCondition never(&sched);
  std::atomic<int> deadlocked{0};
  const std::array<const char*, 2> names{"alpha", "beta"};
  std::array<const void*, 2> frames{};
  for (std::size_t i = 0; i < names.size(); ++i) {
    sched.spawn(names[i], [&, i] {
      frames[i] = __builtin_frame_address(0);
      try {
        never.wait();
        ADD_FAILURE() << "wait returned without a wake";
      } catch (const DeadlockError& e) {
        deadlocked.fetch_add(1);
        EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos);
        throw;
      }
    });
  }
  EXPECT_THROW(sched.run(), DeadlockError);
  EXPECT_EQ(deadlocked.load(), 2);
  if (is_serial(config())) {
    for (const void* frame : frames) EXPECT_FALSE(is_mapped(frame)) << "fiber stack left mapped";
  }
}

TEST_P(ExecutionModelTest, DeadlockAfterProgressReportsCurrentTime) {
  Scheduler sched(config());
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

TEST_P(ExecutionModelTest, ConditionWakesAllWaiters) {
  Scheduler sched(config());
  SimCondition cond(&sched);
  std::atomic<bool> go{false};
  std::atomic<int> woke{0};
  for (int i = 0; i < 4; ++i) {
    sched.spawn("w" + std::to_string(i), [&] {
      cond.wait([&] { return go.load(); });
      woke.fetch_add(1);
    });
  }
  sched.spawn("signaller", [&] {
    sched.sleep_for(15.0);
    go.store(true);
    cond.notify_all();
  });
  sched.run();
  EXPECT_EQ(woke.load(), 4);
}

TEST_P(ExecutionModelTest, ActorExceptionPropagatesFromRun) {
  Scheduler sched(config());
  struct Unwound {
    std::atomic<bool>* flag;
    ~Unwound() { flag->store(true); }
  };
  std::atomic<bool> bystander_unwound{false};
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
  EXPECT_TRUE(bystander_unwound.load()) << "the bystander must unwind, not be abandoned";
  if (is_serial(config())) {
    EXPECT_FALSE(is_mapped(boom_frame)) << "fiber stack left mapped";
  }
}

TEST_P(ExecutionModelTest, IntrospectionReportsTheModel) {
  Scheduler sched(config());
  sched.spawn("a", [&] { sched.sleep_for(1.0); });
  sched.run();
  EXPECT_EQ(sched.execution_kind(), config().kind);
  if (config().kind == ExecutionModelKind::ParallelShards) {
    EXPECT_GE(sched.shard_count(), 1);
    EXPECT_LE(sched.shard_count(), config().threads);
    EXPECT_GE(sched.barrier_epochs(), 1u);  // the sleep forced a time advance
  } else {
    EXPECT_EQ(sched.shard_count(), 1);
    EXPECT_EQ(sched.barrier_epochs(), 0u);
  }
}

TEST_P(ExecutionModelTest, CurrentActorNameInsideAndOutside) {
  Scheduler sched(config());
  std::string inside;
  sched.spawn("the-actor", [&] { inside = sched.current_actor_name(); });
  sched.run();
  EXPECT_EQ(inside, "the-actor");
  EXPECT_EQ(sched.current_actor_name(), "");
  EXPECT_EQ(sched.current_actor_id(), -1);
}

TEST_P(ExecutionModelTest, ManyActorsManySleepsStress) {
  Scheduler sched(config());
  constexpr int kActors = 12;
  constexpr int kRounds = 40;
  std::atomic<int> done{0};
  for (int a = 0; a < kActors; ++a) {
    sched.spawn("s" + std::to_string(a), [&, a] {
      for (int r = 0; r < kRounds; ++r) sched.sleep_for(1.0 + (a % 3));
      done.fetch_add(1);
    });
  }
  sched.run();
  EXPECT_EQ(done.load(), kActors);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0 * kRounds);  // slowest actor: 3us rounds
}

TEST_P(ExecutionModelTest, SecondRunRunsOnlyNewlySpawnedActors) {
  Scheduler sched(config());
  std::atomic<int> a_runs{0}, b_runs{0};
  sched.spawn("a", [&] {
    sched.sleep_for(3.0);
    a_runs.fetch_add(1);
  });
  sched.run();
  sched.spawn("b", [&] {
    sched.sleep_for(5.0);
    b_runs.fetch_add(1);
  });
  sched.run();
  EXPECT_EQ(a_runs.load(), 1) << "a joined actor must not run again in a later run()";
  EXPECT_EQ(b_runs.load(), 1);
  EXPECT_DOUBLE_EQ(sched.now(), 8.0);
}

// libstdc++ keeps the caught-exception chain and the uncaught count per
// thread, and serial actors share one thread. A suspends inside its handler
// while B is first mid-unwind (t=10), then inside its own handler (t=30); A's
// `throw;` must still rethrow A's exception, and neither actor may see the
// other's exception in flight.
TEST_P(ExecutionModelTest, ExceptionStateIsPerActor) {
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
  Scheduler sched(config());
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
TEST_P(ExecutionModelTest, ActorStackHoldsAMebibyteAcrossAWait) {
  Scheduler sched(config());
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

INSTANTIATE_TEST_SUITE_P(Engines, ExecutionModelTest,
                         ::testing::Values(ExecutionConfig::serial(),
                                           ExecutionConfig::parallel(2),
                                           ExecutionConfig::parallel(4)),
                         config_name);

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
