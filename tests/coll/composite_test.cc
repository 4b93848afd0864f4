// Composite collective correctness: a hierarchical or reduce-scatter+
// allgather allreduce must produce exactly the data a flat allreduce does —
// on the world, on sub-communicators, sync or async — and the runtime must
// reject composite strings it cannot honour (wrong op, unknown backend,
// subsystem disabled). Also pins that "auto" with tuner arms converges to a
// composite for large messages on a multi-node machine, the acceptance
// criterion of DESIGN.md §15.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

class CompositeTest : public ::testing::Test {
 protected:
  void make(int nodes, McrDlOptions opts) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes));
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
  }
  static McrDlOptions coll_opts() {
    McrDlOptions opts;
    opts.coll.enabled = true;
    return opts;
  }
  int world() const { return cluster_->world_size(); }

  // Runs one allreduce-sum of `elems` floats (rank r starts at r+1) on every
  // rank through `algo` and returns the final per-rank values.
  std::vector<double> run_allreduce(const std::string& algo, int elems, bool async) {
    std::vector<double> finals(static_cast<std::size_t>(world()), 0.0);
    cluster_->run_spmd([&](int rank) {
      Api api = mcr_->on(rank);
      Tensor t = Tensor::full({elems}, DType::F32, static_cast<double>(rank + 1),
                              cluster_->device(rank));
      Work w = api.all_reduce(algo, t, ReduceOp::Sum, async);
      if (async) w->wait();
      api.synchronize();
      finals[static_cast<std::size_t>(rank)] = t.get(0);
    });
    return finals;
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
};

double world_sum(int world) { return static_cast<double>(world) * (world + 1) / 2.0; }

TEST_F(CompositeTest, HierMatchesFlatAllreduce) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, HierSingleNodeDegeneratesToIntraOnly) {
  // One node: no leader hop exists — the composite is intra reduce +
  // broadcast and must still equal the flat result.
  make(1, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, RsagMatchesFlatIncludingNonDivisibleLength) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  // 13 elements over 8 ranks: the padded reduce-scatter and the slice-back
  // finalize must leave exactly the unpadded prefix reduced.
  for (const double v : run_allreduce("rsag:mv2-gdr", 13, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, BareRsagUsesDefaultBackend) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("rsag", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, AsyncCompositeCompletesOnWait) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/true)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

// Work::synchronize() completes an async composite like wait() does: an
// unchunked composite is one ChainWork, a chunked one (overlap on) a
// ChainGroupWork over its chunk chains.
TEST_F(CompositeTest, AsyncCompositeCompletesOnSynchronize) {
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap" : "no overlap");
    McrDlOptions opts = coll_opts();
    opts.coll.overlap = overlap;
    opts.coll.chunks = 4;
    mcr_.reset();
    make(2, opts);
    mcr_->init({"nccl", "mv2-gdr"});
    cluster_->run_spmd([&](int rank) {
      Api api = mcr_->on(rank);
      Tensor t = Tensor::full({64}, DType::F32, rank + 1.0, cluster_->device(rank));
      Work w = api.all_reduce("hier:nccl+mv2-gdr", t, ReduceOp::Sum, /*async_op=*/true);
      if (overlap) {
        EXPECT_NE(dynamic_cast<coll::ChainGroupWork*>(w.get()), nullptr);
      } else {
        EXPECT_NE(dynamic_cast<coll::ChainWork*>(w.get()), nullptr);
      }
      w->synchronize();
      EXPECT_TRUE(w->test());
      api.synchronize();
      EXPECT_DOUBLE_EQ(t.get(63), world_sum(world()));
    });
  }
}

TEST_F(CompositeTest, SubgroupCompositeReducesOnlyMembers) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  // Two ranks per node (lassen is 4 per node): the derived partition has two
  // single-leader intra groups and a two-rank leader hop.
  const std::vector<int> members = {0, 1, 4, 5};
  std::vector<double> finals(static_cast<std::size_t>(world()), 0.0);
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({32}, DType::F32, static_cast<double>(rank + 1),
                            cluster_->device(rank));
    const bool member = std::find(members.begin(), members.end(), rank) != members.end();
    if (member) {
      Api sub = api.group(members);
      sub.all_reduce("hier:nccl+mv2-gdr", t, ReduceOp::Sum);
    }
    api.synchronize();
    finals[static_cast<std::size_t>(rank)] = t.get(0);
  });
  const double member_sum = 1.0 + 2.0 + 5.0 + 6.0;
  for (int r = 0; r < world(); ++r) {
    const bool member = std::find(members.begin(), members.end(), r) != members.end();
    EXPECT_DOUBLE_EQ(finals[static_cast<std::size_t>(r)],
                     member ? member_sum : static_cast<double>(r + 1));
  }
}

TEST_F(CompositeTest, SingleRankGroupIsIdentity) {
  make(1, coll_opts());
  mcr_->init({"nccl"});
  cluster_->run_spmd([&](int rank) {
    if (rank != 0) return;
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 7.0, cluster_->device(rank));
    Api solo = api.group({0});
    Work w = solo.all_reduce("hier:nccl+nccl", t, ReduceOp::Sum);
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->test());
    EXPECT_DOUBLE_EQ(t.get(0), 7.0);
  });
}

TEST_F(CompositeTest, CompositeOnNonAllreduceThrows) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(api.broadcast("hier:nccl+mv2-gdr", t, /*root=*/0), InvalidArgument);
  });
}

TEST_F(CompositeTest, CompositeNamingUninitialisedBackendThrows) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(api.all_reduce("hier:nccl+bogus", t), InvalidArgument);
    EXPECT_THROW(api.all_reduce("rsag:bogus", t), InvalidArgument);
  });
}

TEST_F(CompositeTest, DisabledSubsystemRejectsCompositeStrings) {
  make(2, McrDlOptions{});  // coll.enabled defaults to false
  mcr_->init({"nccl", "mv2-gdr"});
  EXPECT_FALSE(mcr_->coll_enabled());
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    // Rejected exactly like any unknown backend name — the disabled
    // subsystem must not even recognise the grammar.
    EXPECT_THROW(api.all_reduce("hier:nccl+mv2-gdr", t), InvalidArgument);
  });
}

TEST_F(CompositeTest, AutoWithTunerArmsConvergesToAComposite) {
  McrDlOptions opts = coll_opts();
  opts.coll.tuner_arms = true;
  opts.online_tuning.enabled = true;
  opts.online_tuning.explore_period = 4;  // probe all arms quickly
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  ASSERT_NE(mcr_->online_tuner(), nullptr);

  // 16 MiB gradients on two lassen nodes: the rail-striped leader hop makes
  // the hierarchical arms measurably cheaper than any flat backend (past the
  // tuner's switch hysteresis), so the measured-best incumbent must end on a
  // composite arm.
  constexpr int kElems = 4 * 1024 * 1024;
  constexpr int kIters = 80;
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::phantom({kElems}, DType::F32, cluster_->device(rank));
    for (int i = 0; i < kIters; ++i) {
      api.all_reduce("auto", t, ReduceOp::Sum);
      // Stream-backend completions are observed off the host path; sync each
      // step so every decision sees the previous step's measurements — the
      // cadence of a real training loop.
      api.synchronize();
    }
  });

  bool composite_incumbent = false;
  for (const auto& arm : mcr_->online_tuner()->arms()) {
    if (arm.op == OpType::AllReduce && arm.incumbent && coll::parse(arm.backend).has_value()) {
      composite_incumbent = true;
    }
  }
  EXPECT_TRUE(composite_incumbent)
      << "online tuner did not converge to a composite arm for large allreduces";
}

}  // namespace
}  // namespace mcrdl
