// Failure-injection tests: a production runtime must fail loudly and
// cleanly, not hang or corrupt state, when ranks die mid-collective, when
// programs misuse the API, or when handles are abandoned.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

TEST(FailureInjection, RankThrowsMidCollectiveUnwindsWholeCluster) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("mv2-gdr", t, ReduceOp::Sum, true);
                 if (rank == 2) throw InvalidArgument("simulated rank failure");
                 api.synchronize();  // peers block; must be force-unwound
               }),
               InvalidArgument);
}

TEST(FailureInjection, RankDiesBeforeJoiningIsADeadlockNotAHang) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 if (rank == 3) return;  // silently exits (crashed process)
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("mv2-gdr", t);
               }),
               DeadlockError);
}

TEST(FailureInjection, AbandonedAsyncHandlesStillCompleteTheCollective) {
  // Dropping the Work handle must not leak or cancel the operation: the
  // data is still reduced and a later synchronize() drains cleanly.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
    (void)api.all_reduce("nccl", t, ReduceOp::Sum, true);  // handle dropped
    api.synchronize();
    EXPECT_DOUBLE_EQ(t.get(0), 4.0);
  });
}

TEST(FailureInjection, MismatchSurfacesOnEveryLateRank) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  try {
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
      if (rank == 0) {
        api.broadcast("mv2-gdr", t, 0);
      } else {
        api.all_reduce("mv2-gdr", t);
      }
    });
    FAIL() << "expected CollectiveMismatch";
  } catch (const CollectiveMismatch& e) {
    // The message must name both operations to be debuggable.
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast"), std::string::npos);
    EXPECT_NE(what.find("all_reduce"), std::string::npos);
  }
}

TEST(FailureInjection, WrongSizedBuffersRejectedBeforePosting) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  cluster.run_spmd(1, [&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    Tensor in = Tensor::zeros({4}, DType::F32, dev);
    Tensor bad_out = Tensor::zeros({7}, DType::F32, dev);  // not 4 * world
    EXPECT_THROW(api.all_gather("mv2-gdr", bad_out, in), InvalidArgument);
    Tensor bad_rs = Tensor::zeros({3}, DType::F32, dev);
    EXPECT_THROW(api.reduce_scatter("mv2-gdr", bad_rs, in), InvalidArgument);
    Tensor odd = Tensor::zeros({5}, DType::F32, dev);
    EXPECT_THROW(api.all_to_all_single("mv2-gdr", odd, odd), InvalidArgument);
  });
}

TEST(FailureInjection, FusionPendingAtFailureDoesNotCrashTeardown) {
  FusionConfig fcfg;
  fcfg.enabled = true;
  fcfg.buffer_bytes = 1 << 24;   // never fills
  fcfg.flush_timeout_us = 1e9;   // never times out
  McrDlOptions opts;
  opts.fusion = fcfg;
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("nccl", t, ReduceOp::Sum, true);  // parked in fusion buffer
                 if (rank == 0) throw BackendStateError("injected");
                 cluster.scheduler().sleep_for(1e6);
               }),
               BackendStateError);
  // The context tears down with tensors still parked — no crash, no UB.
}

// Works issued into a run that never finishes them must be freed with the
// context. Each is pinned by a cycle (the operation's completion callbacks
// capture the Work that owns the operation) that only the engine still
// holding the pending operation can break, by dropping its completion at
// teardown. These fail without a sanitizer: the weak handles stay alive.
class WorkLifetime : public ::testing::Test {
 protected:
  void expect_all_freed() {
    ASSERT_FALSE(issued_.empty());
    for (std::size_t i = 0; i < issued_.size(); ++i) {
      EXPECT_TRUE(issued_[i].expired()) << "work " << i << " outlived its ClusterContext";
    }
  }

  std::vector<std::weak_ptr<WorkHandle>> issued_;
};

TEST_F(WorkLifetime, MissingParticipantDeadlockFreesIssuedWorks) {
  {
    ClusterContext cluster(net::SystemConfig::lassen(1));
    McrDl mcr(&cluster);
    mcr.init({"mv2-gdr"});
    EXPECT_THROW(cluster.run_spmd([&](int rank) {
                   if (rank == 0) return;  // never joins
                   Api api = mcr.on(rank);
                   Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                   issued_.push_back(api.all_reduce("mv2-gdr", t, ReduceOp::Sum, true));
                   api.synchronize();
                 }),
                 DeadlockError);
  }
  expect_all_freed();
}

TEST_F(WorkLifetime, UnmatchedHostWaitRecvFreesIssuedWork) {
  {
    ClusterContext cluster(net::SystemConfig::lassen(1));
    McrDl mcr(&cluster);
    mcr.init({"mv2-gdr"});
    EXPECT_THROW(cluster.run_spmd(2, [&](int rank) {
                   if (rank == 0) return;  // never sends
                   Api api = mcr.on(rank);
                   Tensor t = Tensor::zeros({4}, DType::F32, cluster.device(rank));
                   Work w = api.recv("mv2-gdr", t, 0, true);
                   issued_.push_back(w);
                   w->wait();
                 }),
                 DeadlockError);
  }
  expect_all_freed();
}

TEST_F(WorkLifetime, RankThrowingMidCollectiveFreesIssuedWorks) {
  {
    ClusterContext cluster(net::SystemConfig::lassen(1));
    McrDl mcr(&cluster);
    mcr.init({"mv2-gdr", "nccl"});
    EXPECT_THROW(cluster.run_spmd([&](int rank) {
                   Api api = mcr.on(rank);
                   Tensor x = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                   Tensor y = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                   issued_.push_back(api.all_reduce("mv2-gdr", x, ReduceOp::Sum, true));
                   issued_.push_back(api.all_reduce("nccl", y, ReduceOp::Sum, true));
                   if (rank == 2) throw InvalidArgument("simulated rank failure");
                   api.synchronize();
                 }),
                 InvalidArgument);
  }
  expect_all_freed();
}

TEST(FailureInjection, RootOutOfRangeRejected) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  cluster.run_spmd(1, [&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::zeros({4}, DType::F32, cluster.device(rank));
    EXPECT_THROW(api.broadcast("mv2-gdr", t, 99), InvalidArgument);
    EXPECT_THROW(api.reduce("mv2-gdr", t, -1), InvalidArgument);
  });
}

TEST(FailureInjection, ApiForUnknownRankRejected) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  EXPECT_THROW(mcr.on(99), InvalidArgument);
  EXPECT_THROW(mcr.on(-1), InvalidArgument);
}

// --- FaultInjector-driven scenarios (src/fault/) ---------------------------

TEST(FailureInjection, OutageWithNoAlternativeFailsLoudlyNotSilently) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(fault::FaultSpec::outage("nccl", 0.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});  // the dead backend is the only one
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("nccl", t);
               }),
               BackendUnavailable);
}

TEST(FailureInjection, FailoverDisabledRefusesToMaskAnOutage) {
  // With failover off, a healthy alternative must NOT be used silently: the
  // outage surfaces so the caller decides.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.failover = false;
  opts.fault.plan.specs.push_back(fault::FaultSpec::outage("nccl", 0.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("nccl", t);
               }),
               BackendUnavailable);
}

TEST(FailureInjection, SeededChaosScheduleStillProducesExactSums) {
  // Probabilistic transients with a fixed seed: the fault pattern is fully
  // deterministic, and however the retries and failovers land, every
  // collective must still produce bit-exact results.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.seed = 1234;
  opts.fault.plan.specs.push_back(fault::FaultSpec::transient("mv2-gdr", 0.4));
  opts.fault.retry.max_attempts = 6;
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr", "nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({32}, DType::F32, 1.0, cluster.device(rank));
    for (int i = 0; i < 5; ++i) api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
    api.synchronize();
    EXPECT_DOUBLE_EQ(t.get(0), 1024.0);  // 4^5
  });
  const fault::ResilienceReport& report = mcr.failover()->report();
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.attempted, report.succeeded);
  EXPECT_GT(cluster.faults().stats().transient_injected, 0u);
}

TEST(FailureInjection, InjectorStateResetsOnFinalize) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(fault::FaultSpec::outage("nccl", 0.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  EXPECT_TRUE(cluster.faults().enabled());
  mcr.finalize();
  EXPECT_FALSE(cluster.faults().enabled());
  EXPECT_FALSE(cluster.faults().backend_unavailable("nccl"));
  EXPECT_EQ(mcr.failover(), nullptr);
}

}  // namespace
}  // namespace mcrdl
