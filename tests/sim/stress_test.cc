// Stress / property tests for the virtual-time substrate: many actors,
// random sleep/condition/event interleavings, full determinism, and stream
// pipelines under load.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/device.h"
#include "src/sim/scheduler.h"

namespace mcrdl::sim {
namespace {

TEST(SchedulerStress, RandomSleepProgramsAreDeterministic) {
  auto run = [](std::uint64_t seed) {
    Scheduler sched;
    std::vector<double> trace;
    for (int a = 0; a < 32; ++a) {
      sched.spawn(std::string("a").append(std::to_string(a)), [&, a] {
        Rng rng(seed * 1000 + a);
        for (int i = 0; i < 50; ++i) {
          sched.sleep_for(rng.uniform(0.1, 10.0));
          trace.push_back(a * 1e6 + sched.now());
        }
      });
    }
    sched.run();
    return trace;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SchedulerStress, ProducersAndConsumersThroughConditions) {
  // 16 producer/consumer pairs over shared queues; all items must arrive in
  // order with no loss under heavy interleaving.
  constexpr int kPairs = 16;
  constexpr int kItems = 100;
  Scheduler sched;
  struct Queue {
    std::vector<int> items;
    std::unique_ptr<SimCondition> cond;
  };
  std::vector<Queue> queues(kPairs);
  for (auto& q : queues) q.cond = std::make_unique<SimCondition>(&sched);
  int consumed_total = 0;
  for (int p = 0; p < kPairs; ++p) {
    sched.spawn("prod" + std::to_string(p), [&, p] {
      Rng rng(static_cast<std::uint64_t>(p));
      for (int i = 0; i < kItems; ++i) {
        sched.sleep_for(rng.uniform(0.01, 1.0));
        queues[static_cast<std::size_t>(p)].items.push_back(i);
        queues[static_cast<std::size_t>(p)].cond->notify_all();
      }
    });
    sched.spawn("cons" + std::to_string(p), [&, p] {
      Queue& q = queues[static_cast<std::size_t>(p)];
      int next = 0;
      while (next < kItems) {
        q.cond->wait([&] { return static_cast<int>(q.items.size()) > next; });
        EXPECT_EQ(q.items[static_cast<std::size_t>(next)], next);
        ++next;
        ++consumed_total;
      }
    });
  }
  sched.run();
  EXPECT_EQ(consumed_total, kPairs * kItems);
}

TEST(SchedulerStress, ManyTimersFireInOrder) {
  Scheduler sched;
  std::vector<double> fired;
  sched.spawn("a", [&] {
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
      const double t = rng.uniform(0.0, 1000.0);
      sched.schedule_at(t, [&fired, &sched] { fired.push_back(sched.now()); });
    }
    sched.sleep_for(2000.0);
  });
  sched.run();
  ASSERT_EQ(fired.size(), 500u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(SchedulerStress, CancelHalfTheTimers) {
  Scheduler sched;
  int fired = 0;
  sched.spawn("a", [&] {
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sched.schedule_after(10.0 + i, [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
    sched.sleep_for(500.0);
  });
  sched.run();
  EXPECT_EQ(fired, 50);
}

TEST(DeviceStress, DeepStreamPipelinesAcrossDevices) {
  // 8 devices, each with a producer stream chained to a consumer stream via
  // events, 100 stages deep; total time must equal the critical path.
  Scheduler sched;
  constexpr int kDevices = 8;
  constexpr int kStages = 100;
  std::vector<std::unique_ptr<Device>> devices;
  for (int d = 0; d < kDevices; ++d) devices.push_back(std::make_unique<Device>(&sched, d, 0, d));
  sched.spawn("host", [&] {
    std::vector<Stream*> producers, consumers;
    for (auto& dev : devices) {
      producers.push_back(dev->create_stream("prod"));
      consumers.push_back(dev->create_stream("cons"));
    }
    for (int d = 0; d < kDevices; ++d) {
      for (int s = 0; s < kStages; ++s) {
        auto ev = std::make_shared<Event>(&sched);
        producers[static_cast<std::size_t>(d)]->launch_kernel(1.0);
        producers[static_cast<std::size_t>(d)]->record_event(ev);
        consumers[static_cast<std::size_t>(d)]->wait_event(ev);
        consumers[static_cast<std::size_t>(d)]->launch_kernel(1.0);
      }
    }
    for (Stream* s : consumers) s->synchronize();
    // Producer finishes at kStages; the last consumer kernel starts then.
    EXPECT_DOUBLE_EQ(sched.now(), kStages + 1.0);
  });
  sched.run();
}

TEST(DeviceStress, BusyTimeAccountsEveryKernel) {
  Scheduler sched;
  Device dev(&sched, 0, 0, 0);
  sched.spawn("host", [&] {
    Rng rng(3);
    double expected = 0.0;
    for (int i = 0; i < 200; ++i) {
      const double d = rng.uniform(0.1, 5.0);
      expected += d;
      dev.default_stream()->launch_kernel(d);
    }
    dev.default_stream()->synchronize();
    EXPECT_NEAR(dev.default_stream()->busy_time(), expected, 1e-9);
    EXPECT_NEAR(sched.now(), expected, 1e-9);
  });
  sched.run();
}

}  // namespace
}  // namespace mcrdl::sim
