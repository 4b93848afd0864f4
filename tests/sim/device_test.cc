// Unit tests for the simulated device runtime: stream FIFO ordering, kernel
// timing, event record/wait semantics, gated callbacks, and host synchronisation.
#include "src/sim/device.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace mcrdl::sim {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  // Runs `body` as a single host actor against one device.
  void run_host(std::function<void(Device&)> body) {
    Device device(&sched_, /*global_id=*/0, /*node_id=*/0, /*local_id=*/0);
    sched_.spawn("host", [&] { body(device); });
    sched_.run();
  }

  Scheduler sched_;
};

TEST_F(DeviceTest, KernelsExecuteInOrderAndAccumulateTime) {
  run_host([&](Device& dev) {
    std::vector<SimTime> completions;
    Stream* s = dev.default_stream();
    s->launch_kernel(10.0, [&] { completions.push_back(sched_.now()); });
    s->launch_kernel(5.0, [&] { completions.push_back(sched_.now()); });
    s->launch_kernel(2.5, [&] { completions.push_back(sched_.now()); });
    s->synchronize();
    EXPECT_EQ(completions, (std::vector<SimTime>{10.0, 15.0, 17.5}));
    EXPECT_DOUBLE_EQ(s->busy_time(), 17.5);
    EXPECT_TRUE(s->idle());
  });
}

TEST_F(DeviceTest, SynchronizeBlocksUntilQuiescent) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    s->launch_kernel(100.0);
    EXPECT_FALSE(s->idle());
    EXPECT_DOUBLE_EQ(sched_.now(), 0.0);  // launch is asynchronous
    s->synchronize();
    EXPECT_DOUBLE_EQ(sched_.now(), 100.0);
  });
}

TEST_F(DeviceTest, IndependentStreamsOverlap) {
  run_host([&](Device& dev) {
    Stream* a = dev.create_stream("a");
    Stream* b = dev.create_stream("b");
    a->launch_kernel(50.0);
    b->launch_kernel(50.0);
    a->synchronize();
    b->synchronize();
    // Overlapped: total elapsed is 50, not 100.
    EXPECT_DOUBLE_EQ(sched_.now(), 50.0);
  });
}

TEST_F(DeviceTest, EventRecordsStreamPosition) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto ev = std::make_shared<Event>(&sched_);
    s->launch_kernel(30.0);
    s->record_event(ev);
    s->launch_kernel(70.0);
    EXPECT_FALSE(ev->complete());
    ev->synchronize();
    EXPECT_TRUE(ev->complete());
    EXPECT_DOUBLE_EQ(ev->completion_time(), 30.0);
    EXPECT_DOUBLE_EQ(sched_.now(), 30.0);  // host resumed before second kernel finished
    s->synchronize();
    EXPECT_DOUBLE_EQ(sched_.now(), 100.0);
  });
}

TEST_F(DeviceTest, StreamWaitEventOrdersAcrossStreams) {
  run_host([&](Device& dev) {
    Stream* producer = dev.create_stream("producer");
    Stream* consumer = dev.create_stream("consumer");
    auto ev = std::make_shared<Event>(&sched_);
    SimTime consumer_done = -1.0;

    producer->launch_kernel(40.0);
    producer->record_event(ev);
    consumer->wait_event(ev);
    consumer->launch_kernel(10.0, [&] { consumer_done = sched_.now(); });
    consumer->synchronize();
    EXPECT_DOUBLE_EQ(consumer_done, 50.0);  // waited for producer's 40, then ran 10
  });
}

TEST_F(DeviceTest, WaitOnAlreadyCompleteEventIsImmediate) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto ev = std::make_shared<Event>(&sched_);
    s->record_event(ev);
    s->synchronize();
    EXPECT_TRUE(ev->complete());
    s->wait_event(ev);
    s->launch_kernel(5.0);
    s->synchronize();
    EXPECT_DOUBLE_EQ(sched_.now(), 5.0);
  });
}

TEST_F(DeviceTest, EventResetAllowsReRecord) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto ev = std::make_shared<Event>(&sched_);
    s->launch_kernel(10.0);
    s->record_event(ev);
    s->synchronize();
    EXPECT_DOUBLE_EQ(ev->completion_time(), 10.0);
    ev->reset();
    EXPECT_FALSE(ev->complete());
    s->launch_kernel(10.0);
    s->record_event(ev);
    s->synchronize();
    EXPECT_DOUBLE_EQ(ev->completion_time(), 20.0);
  });
}

TEST_F(DeviceTest, EventResetRearmsCompletionCallbacks) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto ev = std::make_shared<Event>(&sched_);
    std::vector<SimTime> first, second;
    ev->on_complete([&] { first.push_back(sched_.now()); });
    s->launch_kernel(10.0);
    s->record_event(ev);
    s->synchronize();
    ev->reset();
    // Re-armed: a new callback waits for the next Record instead of running
    // inline, and the first one does not run again.
    ev->on_complete([&] { second.push_back(sched_.now()); });
    EXPECT_TRUE(second.empty());
    s->launch_kernel(10.0);
    s->record_event(ev);
    s->synchronize();
    EXPECT_EQ(first, (std::vector<SimTime>{10.0}));
    EXPECT_EQ(second, (std::vector<SimTime>{20.0}));
    ev->on_complete([&] { second.push_back(-1.0); });  // complete: runs inline
    EXPECT_EQ(second, (std::vector<SimTime>{20.0, -1.0}));
  });
}

TEST_F(DeviceTest, StreamTeardownDropsCallbacksOfUnreachedEvents) {
  auto ev = std::make_shared<Event>(&sched_);
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> weak = token;
  bool ran = false;
  {
    Device dev(&sched_, 0, 0, 0);
    Stream* s = dev.default_stream();
    s->add_callback([] {}, std::make_shared<StreamGate>());  // never opens
    s->record_event(ev);
    ev->on_complete([&ran, token] { ran = true; });
    token.reset();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired()) << "the stream's teardown must drop the event's callbacks";
  EXPECT_FALSE(ran);
  EXPECT_FALSE(ev->complete());
}

TEST_F(DeviceTest, GateStallsStreamUntilOpened) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto gate = std::make_shared<StreamGate>();
    SimTime ran_at = -1.0;
    s->add_callback([] {}, gate);
    s->launch_kernel(1.0, [&] { ran_at = sched_.now(); });
    sched_.schedule_after(25.0, [gate] { gate->open(); });
    s->synchronize();
    EXPECT_DOUBLE_EQ(ran_at, 26.0);
  });
}

TEST_F(DeviceTest, OpenGateDoesNotStall) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto gate = std::make_shared<StreamGate>();
    gate->open();
    s->add_callback([] {}, gate);
    s->launch_kernel(2.0);
    s->synchronize();
    EXPECT_DOUBLE_EQ(sched_.now(), 2.0);
  });
}

TEST_F(DeviceTest, GatedCallbackCompletesDoneWhenTheGateOpens) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto gate = std::make_shared<StreamGate>();
    auto done = std::make_shared<Event>(&sched_);
    SimTime ran_at = -1.0;
    s->launch_kernel(5.0);
    s->add_callback([&] { ran_at = sched_.now(); }, gate, done);
    sched_.schedule_after(30.0, [gate] { gate->open(); });
    sched_.sleep_for(10.0);
    EXPECT_DOUBLE_EQ(ran_at, 5.0) << "fn runs when the stream reaches the op";
    EXPECT_FALSE(done->complete()) << "done waits for the gate, not for fn";
    done->synchronize();
    EXPECT_DOUBLE_EQ(done->completion_time(), 30.0);
  });
}

TEST_F(DeviceTest, UngatedCallbackCompletesDoneWhenFnReturns) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto done = std::make_shared<Event>(&sched_);
    bool ran = false;
    s->launch_kernel(4.0);
    s->add_callback([&] { ran = true; }, nullptr, done);
    done->on_complete([&] { EXPECT_TRUE(ran); });
    s->synchronize();
    EXPECT_DOUBLE_EQ(done->completion_time(), 4.0);
  });
}

TEST_F(DeviceTest, GatedCallbackRunsWorkItEnqueuesAfterItself) {
  // fn enqueues while its op is still at the front of the queue, stalled on
  // the gate: the new ops run after the op is passed, in order. Enough of
  // them to grow the queue's storage under the op.
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    auto gate = std::make_shared<StreamGate>();
    auto done = std::make_shared<Event>(&sched_);
    std::vector<int> order;
    constexpr int kEnqueued = 64;
    s->add_callback(
        [&] {
          order.push_back(-1);
          for (int i = 0; i < kEnqueued; ++i) {
            s->launch_kernel(1.0, [&order, i] { order.push_back(i); });
          }
        },
        gate, done);
    done->on_complete([&] { order.push_back(-2); });
    sched_.schedule_after(10.0, [gate] { gate->open(); });
    s->synchronize();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kEnqueued + 2));
    EXPECT_EQ(order[0], -1);
    EXPECT_EQ(order[1], -2) << "done completes before the ops fn enqueued";
    for (int i = 0; i < kEnqueued; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 2], i);
    EXPECT_DOUBLE_EQ(sched_.now(), 10.0 + kEnqueued);
  });
}

TEST_F(DeviceTest, StreamTeardownDropsDoneOfAGatedCallback) {
  auto done = std::make_shared<Event>(&sched_);
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> weak = token;
  bool ran = false, done_ran = false;
  {
    Device dev(&sched_, 0, 0, 0);
    Stream* s = dev.default_stream();
    s->add_callback([&ran] { ran = true; }, std::make_shared<StreamGate>(), done);  // never opens
    done->on_complete([&done_ran, token] { done_ran = true; });
    token.reset();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(ran) << "the idle stream reached the op at once";
  EXPECT_TRUE(weak.expired()) << "the stream's teardown must drop the done event's callbacks";
  EXPECT_FALSE(done_ran);
  EXPECT_FALSE(done->complete());
}

TEST_F(DeviceTest, CallbackRunsAtStreamPosition) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    SimTime cb_time = -1.0;
    s->launch_kernel(15.0);
    s->add_callback([&] { cb_time = sched_.now(); });
    s->synchronize();
    EXPECT_DOUBLE_EQ(cb_time, 15.0);
  });
}

TEST_F(DeviceTest, CallbackMayEnqueueFurtherWork) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    SimTime second_done = -1.0;
    s->add_callback([&] { s->launch_kernel(7.0, [&] { second_done = sched_.now(); }); });
    s->synchronize();
    EXPECT_DOUBLE_EQ(second_done, 7.0);
  });
}

TEST_F(DeviceTest, ZeroDurationKernelCompletes) {
  run_host([&](Device& dev) {
    Stream* s = dev.default_stream();
    bool ran = false;
    s->launch_kernel(0.0, [&] { ran = true; });
    s->synchronize();
    EXPECT_TRUE(ran);
    EXPECT_DOUBLE_EQ(sched_.now(), 0.0);
  });
}

TEST_F(DeviceTest, NegativeDurationRejected) {
  run_host([&](Device& dev) {
    EXPECT_THROW(dev.default_stream()->launch_kernel(-1.0), InvalidArgument);
  });
}

TEST_F(DeviceTest, DeviceIdentityFields) {
  Scheduler sched;
  Device dev(&sched, 13, 3, 1);
  EXPECT_EQ(dev.global_id(), 13);
  EXPECT_EQ(dev.node_id(), 3);
  EXPECT_EQ(dev.local_id(), 1);
  EXPECT_NE(dev.default_stream(), nullptr);
}

TEST_F(DeviceTest, TwoHostActorsShareOneDeviceViaEvents) {
  // Producer actor launches work and records an event; consumer actor waits
  // on it from the host side — the cross-actor analogue of Listing 3.
  Device device(&sched_, 0, 0, 0);
  auto ev = std::make_shared<Event>(&sched_);
  SimTime consumer_resumed = -1.0;
  sched_.spawn("producer", [&] {
    device.default_stream()->launch_kernel(60.0);
    device.default_stream()->record_event(ev);
  });
  sched_.spawn("consumer", [&] {
    ev->synchronize();
    consumer_resumed = sched_.now();
  });
  sched_.run();
  EXPECT_DOUBLE_EQ(consumer_resumed, 60.0);
}

}  // namespace
}  // namespace mcrdl::sim
