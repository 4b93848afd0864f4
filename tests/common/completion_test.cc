// Completion: the one-shot callback list every WorkHandle is built on. These
// pin its two terminal transitions (fire hands callbacks back exactly once,
// drop discards them unrun) and what add() does after each.
#include "src/common/completion.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace mcrdl {
namespace {

void run_all(Completion::Callbacks callbacks) {
  for (auto& fn : callbacks) fn();
}

TEST(Completion, FiresQueuedCallbacksExactlyOnceInOrder) {
  Completion c;
  std::string order;
  EXPECT_FALSE(c.add([&] { order += 'a'; }));
  EXPECT_FALSE(c.add([&] { order += 'b'; }));
  EXPECT_FALSE(c.fired());
  run_all(c.fire());
  EXPECT_TRUE(c.fired());
  EXPECT_EQ(order, "ab");
  EXPECT_TRUE(c.fire().empty());  // a second fire hands nothing back
  EXPECT_EQ(order, "ab");
}

TEST(Completion, AddAfterFireRunsInline) {
  Completion c;
  run_all(c.fire());
  int ran = 0;
  Completion::Callback late = c.add([&] { ++ran; });
  ASSERT_TRUE(late) << "a fired completion must hand the callback back to run now";
  late();
  EXPECT_EQ(ran, 1);
}

TEST(Completion, DropDiscardsQueuedAndLaterCallbacks) {
  Completion c;
  int ran = 0;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> weak = token;
  EXPECT_FALSE(c.add([&ran, token] { ++ran; }));
  token.reset();
  c.drop();
  EXPECT_TRUE(weak.expired()) << "drop must release what the callbacks captured";
  EXPECT_FALSE(c.add([&] { ++ran; }));
  EXPECT_TRUE(c.fire().empty()) << "a fire after drop must not resurrect dropped callbacks";
  EXPECT_EQ(ran, 0);
}

TEST(Completion, DropAfterFireIsANoop) {
  Completion c;
  run_all(c.fire());
  c.drop();
  EXPECT_TRUE(c.fired());
  EXPECT_TRUE(c.add([] {}));
}

TEST(Completion, CallbackRegisteringAnotherDuringFireRunsIt) {
  Completion c;
  std::vector<int> order;
  EXPECT_FALSE(c.add([&] {
    order.push_back(1);
    if (auto late = c.add([&] { order.push_back(2); })) late();
  }));
  EXPECT_FALSE(c.add([&] { order.push_back(3); }));
  run_all(c.fire());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(c.fire().empty());
}

TEST(Completion, ResetRearmsForAnotherFire) {
  Completion c;
  int ran = 0;
  EXPECT_FALSE(c.add([&] { ++ran; }));
  run_all(c.fire());
  c.reset();
  EXPECT_FALSE(c.fired());
  EXPECT_FALSE(c.add([&] { ran += 10; }));
  EXPECT_EQ(ran, 1);
  run_all(c.fire());
  EXPECT_EQ(ran, 11);
}

}  // namespace
}  // namespace mcrdl
