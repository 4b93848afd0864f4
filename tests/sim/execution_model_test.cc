// Execution-model seam tests: the same scheduler contract exercised under
// both engines (SerialBaton and ParallelShards). Covers the edge cases the
// refactor is most likely to disturb — cancel-after-fire, FIFO ordering of
// simultaneous timed events, stale wait-token rejection, and deadlock
// detection — plus the cross-time ordering guarantees both engines share.
//
// Under ParallelShards, actors that are runnable at the same virtual instant
// execute concurrently, so these tests only assert orderings across distinct
// virtual times (which both engines guarantee) and guard any state shared by
// same-instant actors with a mutex.
#include <gtest/gtest.h>

#include <atomic>
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
  for (const char* name : {"alpha", "beta"}) {
    sched.spawn(name, [&] {
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
  sched.spawn("boom", [&] {
    sched.sleep_for(5.0);
    throw std::runtime_error("actor failed");
  });
  sched.spawn("bystander", [&] { sched.sleep_for(500.0); });
  EXPECT_THROW(sched.run(), std::runtime_error);
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

INSTANTIATE_TEST_SUITE_P(Engines, ExecutionModelTest,
                         ::testing::Values(ExecutionConfig::serial(),
                                           ExecutionConfig::parallel(2),
                                           ExecutionConfig::parallel(4)),
                         config_name);

}  // namespace
}  // namespace mcrdl::sim
