// Unit tests for the virtual-time cooperative scheduler: determinism,
// time advancement, conditions, timed events, deadlock detection, and error
// propagation.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mcrdl::sim {
namespace {

TEST(Scheduler, SingleActorRunsToCompletion) {
  Scheduler sched;
  bool ran = false;
  sched.spawn("a", [&] { ran = true; });
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
}

TEST(Scheduler, SleepAdvancesVirtualTime) {
  Scheduler sched;
  SimTime observed = -1.0;
  sched.spawn("a", [&] {
    sched.sleep_for(125.0);
    observed = sched.now();
  });
  sched.run();
  EXPECT_DOUBLE_EQ(observed, 125.0);
}

TEST(Scheduler, SleepUntilPastIsNoOpInTime) {
  Scheduler sched;
  sched.spawn("a", [&] {
    sched.sleep_for(50.0);
    sched.sleep_until(10.0);  // in the past: fires immediately, no travel back
    EXPECT_DOUBLE_EQ(sched.now(), 50.0);
  });
  sched.run();
}

TEST(Scheduler, TwoActorsInterleaveDeterministically) {
  Scheduler sched;
  std::vector<std::string> trace;
  sched.spawn("a", [&] {
    trace.push_back("a0");
    sched.sleep_for(10.0);
    trace.push_back("a1");
    sched.sleep_for(20.0);  // wakes at t=30
    trace.push_back("a2");
  });
  sched.spawn("b", [&] {
    trace.push_back("b0");
    sched.sleep_for(20.0);
    trace.push_back("b1");
    sched.sleep_for(5.0);  // wakes at t=25
    trace.push_back("b2");
  });
  sched.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "a1", "b1", "b2", "a2"}));
  EXPECT_DOUBLE_EQ(sched.now(), 30.0);
}

TEST(Scheduler, YieldLetsPeersRunFirst) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn("a", [&] {
    order.push_back(1);
    sched.yield();
    order.push_back(3);
  });
  sched.spawn("b", [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ConditionWakesWaiter) {
  Scheduler sched;
  SimCondition cond(&sched);
  bool flag = false;
  SimTime woke_at = -1.0;
  sched.spawn("waiter", [&] {
    cond.wait([&] { return flag; });
    woke_at = sched.now();
  });
  sched.spawn("signaller", [&] {
    sched.sleep_for(42.0);
    flag = true;
    cond.notify_all();
  });
  sched.run();
  EXPECT_DOUBLE_EQ(woke_at, 42.0);
}

TEST(Scheduler, ConditionNotifyAllWakesAllWaiters) {
  Scheduler sched;
  SimCondition cond(&sched);
  bool flag = false;
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    sched.spawn(std::string("w").append(std::to_string(i)), [&] {
      cond.wait([&] { return flag; });
      ++woke;
    });
  }
  sched.spawn("signaller", [&] {
    sched.sleep_for(1.0);
    flag = true;
    cond.notify_all();
  });
  sched.run();
  EXPECT_EQ(woke, 5);
}

TEST(Scheduler, TimedEventFiresAtScheduledTime) {
  Scheduler sched;
  SimTime fired_at = -1.0;
  sched.spawn("a", [&] {
    sched.schedule_after(7.5, [&] { fired_at = sched.now(); });
    sched.sleep_for(100.0);
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, CancelledEventDoesNotFire) {
  Scheduler sched;
  bool fired = false;
  sched.spawn("a", [&] {
    auto id = sched.schedule_after(5.0, [&] { fired = true; });
    sched.cancel(id);
    sched.sleep_for(10.0);
  });
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, EventsFireInTimeOrderWithFifoTieBreak) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn("a", [&] {
    sched.schedule_after(5.0, [&] { order.push_back(2); });
    sched.schedule_after(5.0, [&] { order.push_back(3); });
    sched.schedule_after(1.0, [&] { order.push_back(1); });
    sched.sleep_for(10.0);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, DeadlockDetectedWhenAllActorsBlockForever) {
  Scheduler sched;
  SimCondition never(&sched);
  sched.spawn("a", [&] { never.wait(); });
  sched.spawn("b", [&] { never.wait(); });
  EXPECT_THROW(sched.run(), DeadlockError);
}

TEST(Scheduler, DeadlockAfterOneActorExits) {
  Scheduler sched;
  SimCondition never(&sched);
  sched.spawn("a", [&] { never.wait(); });
  sched.spawn("b", [&] { /* exits immediately, leaving a stuck */ });
  EXPECT_THROW(sched.run(), DeadlockError);
}

TEST(Scheduler, DeadlockMessageNamesBlockedActors) {
  Scheduler sched;
  SimCondition never(&sched);
  sched.spawn("stuck_rank", [&] { never.wait(); });
  try {
    sched.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck_rank"), std::string::npos);
  }
}

TEST(Scheduler, ActorExceptionPropagatesAndUnblocksPeers) {
  Scheduler sched;
  SimCondition never(&sched);
  sched.spawn("waiter", [&] { never.wait(); });
  sched.spawn("thrower", [&] {
    sched.sleep_for(1.0);
    throw InvalidArgument("boom");
  });
  EXPECT_THROW(sched.run(), InvalidArgument);
}

TEST(Scheduler, FirstErrorWinsWhenMultipleActorsThrow) {
  Scheduler sched;
  sched.spawn("a", [&] {
    sched.sleep_for(1.0);
    throw InvalidArgument("first");
  });
  sched.spawn("b", [&] {
    sched.sleep_for(2.0);
    throw BackendStateError("second");
  });
  try {
    sched.run();
    FAIL() << "expected exception";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
}

TEST(Scheduler, ManyActorsBarrierStyleRendezvous) {
  // A hand-rolled barrier across 32 actors exercises the condition + wake
  // machinery under fan-in/fan-out.
  constexpr int kN = 32;
  Scheduler sched;
  SimCondition cond(&sched);
  int arrived = 0;
  int released = 0;
  for (int i = 0; i < kN; ++i) {
    sched.spawn(std::string("r").append(std::to_string(i)), [&, i] {
      sched.sleep_for(static_cast<SimTime>(i));  // staggered arrivals
      ++arrived;
      cond.notify_all();
      cond.wait([&] { return arrived == kN; });
      ++released;
    });
  }
  sched.run();
  EXPECT_EQ(released, kN);
  EXPECT_DOUBLE_EQ(sched.now(), kN - 1);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched;
    std::vector<int> trace;
    SimCondition cond(&sched);
    int token = 0;
    for (int i = 0; i < 8; ++i) {
      sched.spawn(std::string("p").append(std::to_string(i)), [&, i] {
        for (int step = 0; step < 4; ++step) {
          cond.wait([&] { return token % 8 == i; });
          trace.push_back(i * 100 + step);
          ++token;
          cond.notify_all();
        }
      });
    }
    sched.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, CurrentActorNameVisibleInsideActor) {
  Scheduler sched;
  std::string seen;
  sched.spawn("rank7", [&] { seen = sched.current_actor_name(); });
  sched.run();
  EXPECT_EQ(seen, "rank7");
  EXPECT_EQ(sched.current_actor_name(), "");
}

TEST(Scheduler, SpawnAfterRunStartsIsRejected) {
  Scheduler sched;
  sched.spawn("a", [&] {
    EXPECT_THROW(sched.spawn("late", [] {}), Error);
  });
  sched.run();
}

TEST(Scheduler, RunWithoutActorsIsRejected) {
  Scheduler sched;
  EXPECT_THROW(sched.run(), Error);
}

TEST(Scheduler, EventCallbackCanScheduleMoreEvents) {
  Scheduler sched;
  std::vector<SimTime> fires;
  sched.spawn("a", [&] {
    std::function<void()> chain = [&] {
      fires.push_back(sched.now());
      if (fires.size() < 4) sched.schedule_after(10.0, chain);
    };
    sched.schedule_after(10.0, chain);
    sched.sleep_for(100.0);
  });
  sched.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{10.0, 20.0, 30.0, 40.0}));
}

// --- event slot recycling ---------------------------------------------------
//
// Event callbacks live in recycled slots whose ids carry a generation; the
// tests below pin that recycling changes neither the (time, sequence) fire
// order nor what cancel() reaches.

TEST(Scheduler, SameInstantEventsFireInSchedulingOrderAfterSlotReuse) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn("a", [&] {
    // Churn the slot table: fire some events and cancel others, so the free
    // list hands slots back in an order unrelated to scheduling order.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(sched.schedule_after(1.0 + i % 3, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
    sched.sleep_for(10.0);
    for (int i = 0; i < 12; ++i) {
      sched.schedule_after(5.0, [&order, i] { order.push_back(i); });
    }
    sched.sleep_for(10.0);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(Scheduler, CancellingAStaleIdLeavesTheReusedSlotsEventAlive) {
  Scheduler sched;
  int fired_old = 0;
  int fired_new = 0;
  int fired_after_tombstone = 0;
  sched.spawn("a", [&] {
    // A fired event's slot is reused by the next schedule.
    const std::uint64_t old_id = sched.schedule_after(1.0, [&] { ++fired_old; });
    sched.sleep_for(2.0);
    const std::uint64_t new_id = sched.schedule_after(1.0, [&] { ++fired_new; });
    EXPECT_NE(new_id, old_id);
    sched.cancel(old_id);
    EXPECT_EQ(sched.pending_events(), 1u);
    sched.sleep_for(2.0);

    // A cancelled event's slot returns once its tombstone leaves the queue;
    // cancelling it again, before or after the reuse, does nothing.
    const std::uint64_t cancelled_id = sched.schedule_after(1.0, [] { ADD_FAILURE(); });
    sched.cancel(cancelled_id);
    sched.cancel(cancelled_id);
    EXPECT_EQ(sched.pending_events(), 0u);
    sched.sleep_for(2.0);
    sched.schedule_after(1.0, [&] { ++fired_after_tombstone; });
    sched.cancel(cancelled_id);
    sched.cancel(new_id);
    EXPECT_EQ(sched.pending_events(), 1u);
    sched.sleep_for(2.0);
  });
  sched.run();
  EXPECT_EQ(fired_old, 1);
  EXPECT_EQ(fired_new, 1);
  EXPECT_EQ(fired_after_tombstone, 1);
}

TEST(Scheduler, CancelHeavyLoopKeepsPendingEventsExact) {
  Scheduler sched;
  int flushes = 0;
  std::vector<SimTime> ticks;
  sched.spawn("a", [&] {
    // The fusion flush-timer pattern: every op re-arms a far deadline and
    // cancels the previous one, while short real events keep firing, so
    // tombstones pile up, purge, and their slots get reused.
    std::uint64_t timer = sched.schedule_after(1000.0, [&] { ++flushes; });
    for (int i = 0; i < 500; ++i) {
      sched.schedule_after(0.5, [&] { ticks.push_back(sched.now()); });
      sched.cancel(timer);
      timer = sched.schedule_after(1000.0, [&] { ++flushes; });
      ASSERT_EQ(sched.pending_events(), 2u) << "iteration " << i;
      sched.sleep_for(1.0);
      ASSERT_EQ(sched.pending_events(), 1u) << "iteration " << i;
    }
    sched.sleep_for(2000.0);
    EXPECT_EQ(sched.pending_events(), 0u);
  });
  sched.run();
  EXPECT_EQ(flushes, 1);
  ASSERT_EQ(ticks.size(), 500u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ticks[i], static_cast<double>(i) + 0.5);
  }
}

}  // namespace
}  // namespace mcrdl::sim
