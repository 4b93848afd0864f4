// CompositeWork lifetime discipline. The finish stage registers a completion
// closure that captures the composite's own Work handle; the engines'
// fail/cancel paths *drop* part callbacks without firing them. Together
// those two facts used to leave an abandoned composite pinned forever by
// its own callback (part -> callback -> composite -> part cycle). These
// tests pin the fix — weak part callbacks, a self-anchor released on every
// terminal path, and cancel() for owners abandoning a dead composite — and
// run under CI's ASan build, which would flag the leak.
#include "src/core/composite_work.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/completion.h"
#include "src/sim/scheduler.h"

namespace mcrdl {
namespace {

// A part whose completion is driven by hand: fire() runs the registered
// callbacks (normal completion), drop() discards them without firing —
// exactly what Rendezvous::fail()/cancel() do on rank loss.
class ManualWork : public WorkHandle {
 public:
  bool test() const override { return completion_.fired(); }
  void wait() override {}
  void synchronize() override {}
  SimTime complete_time() const override { return 0.0; }
  void on_complete(InlineFn fn) override {
    ++registered_;
    if (auto late = completion_.add(std::move(fn))) late();
  }

  void fire() {
    for (auto& fn : completion_.fire()) fn();
  }
  void drop() { completion_.drop(); }
  int registered() const { return registered_; }

 private:
  Completion completion_;
  int registered_ = 0;
};

TEST(CompositeWork, FinalizeRunsOnceBeforeCompletionCallbacks) {
  sim::Scheduler sched;
  auto a = std::make_shared<ManualWork>();
  auto b = std::make_shared<ManualWork>();
  int finalized = 0;
  bool callback_saw_finalize = false;
  Work w = make_composite(&sched, {a, b}, [&] { ++finalized; });
  w->on_complete([&] { callback_saw_finalize = finalized == 1; });

  a->fire();
  EXPECT_FALSE(w->test());
  b->fire();
  EXPECT_TRUE(w->test());
  EXPECT_EQ(finalized, 1);
  EXPECT_TRUE(callback_saw_finalize);
}

TEST(CompositeWork, EmptyPartListCompletesImmediately) {
  sim::Scheduler sched;
  Work w = make_composite(&sched, {});
  EXPECT_TRUE(w->test());
}

TEST(CompositeWork, NormalCompletionReleasesSelfCapturingCallback) {
  sim::Scheduler sched;
  auto a = std::make_shared<ManualWork>();
  Work w = make_composite(&sched, {a});
  std::weak_ptr<WorkHandle> weak = w;
  // The finish stage's shape: a completion closure owning the composite.
  w->on_complete([w] { (void)w; });
  w.reset();
  EXPECT_FALSE(weak.expired());
  a->fire();
  EXPECT_TRUE(weak.expired()) << "completed composite still pinned by its own callback";
}

TEST(CompositeWork, CancelAfterPartsDropCallbacksFreesTheComposite) {
  sim::Scheduler sched;
  auto a = std::make_shared<ManualWork>();
  auto b = std::make_shared<ManualWork>();
  Work w = make_composite(&sched, {a, b});
  ASSERT_EQ(a->registered(), 1);
  auto* raw = static_cast<CompositeWork*>(w.get());
  std::weak_ptr<WorkHandle> weak = w;
  w->on_complete([w] { (void)w; });  // self-cycle, as registered by finish
  w.reset();

  // Rank loss: the engines drop the part callbacks without firing them. The
  // composite can now never complete on its own...
  a->drop();
  b->drop();
  EXPECT_FALSE(weak.expired());

  // ...so an owner abandoning it must be able to sever the cycle.
  raw->cancel();
  EXPECT_TRUE(weak.expired()) << "cancelled composite leaked via its self-capturing callback";
}

TEST(CompositeWork, CancelIsIdempotentAndNoopAfterCompletion) {
  sim::Scheduler sched;
  auto a = std::make_shared<ManualWork>();
  int fired = 0;
  auto w = std::make_shared<CompositeWork>(&sched, std::vector<Work>{a});
  w->arm();
  w->on_complete([&] { ++fired; });
  a->fire();
  EXPECT_TRUE(w->test());
  EXPECT_EQ(fired, 1);
  w->cancel();  // already done: must not fire or reset anything
  EXPECT_TRUE(w->test());
  EXPECT_EQ(fired, 1);
}

TEST(CompositeWork, PartCallbacksAreWeak) {
  // A part outliving the (cancelled) composite must not keep it alive nor
  // crash when it eventually fires.
  sim::Scheduler sched;
  auto a = std::make_shared<ManualWork>();
  auto w = std::make_shared<CompositeWork>(&sched, std::vector<Work>{a});
  w->arm();
  std::weak_ptr<CompositeWork> weak = w;
  w->cancel();
  w.reset();
  EXPECT_TRUE(weak.expired());
  a->fire();  // late completion of an abandoned composite's part: harmless
}

}  // namespace
}  // namespace mcrdl
