// StackPool tests: the free list hands out the most recently released stack
// first, and contexts that run one after another on one thread can share a
// pool without it growing past the most actors ever live at once.
#include "src/sim/stack_pool.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/backends/cluster.h"

namespace mcrdl {
namespace {

TEST(StackPool, AcquireMapsOnlyWhenTheFreeListIsEmpty) {
  sim::StackPool pool;
  void* a = pool.acquire();
  void* b = pool.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.mapped(), 2u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.mapped(), 2u);
  pool.release(a);
  pool.release(b);
}

TEST(SerialFibers, SharedPoolServesSequentialContexts) {
  sim::StackPool stacks;
  std::size_t peak_live = 0;
  const auto run = [&](ClusterContext& cluster, int ranks) {
    int live = 0;
    cluster.run_spmd(ranks, [&](int) {
      peak_live = std::max(peak_live, static_cast<std::size_t>(++live));
      cluster.scheduler().sleep_for(1.0);
      --live;
    });
    EXPECT_LE(stacks.mapped(), peak_live);
  };
  {
    ClusterContext first(net::SystemConfig::lassen(2), &stacks);
    run(first, first.world_size());
  }
  const std::size_t after_first = stacks.mapped();
  EXPECT_EQ(after_first, peak_live);
  {
    ClusterContext second(net::SystemConfig::lassen(1), &stacks);
    run(second, second.world_size());
    run(second, 2);
  }
  EXPECT_EQ(stacks.mapped(), after_first) << "the second context mapped stacks of its own";
}

}  // namespace
}  // namespace mcrdl
