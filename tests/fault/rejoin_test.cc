// Elastic grow-back end-to-end: quiesce -> grow -> resume when lost ranks
// rejoin (DESIGN.md §13).
//
// The workload below is the two-phase shape tools/mcrdl_chaos.cc uses for
// its rejoin differential: phase one absorbs the loss, every rank then
// parks until just past the rejoin instant (a virtual-time barrier, so the
// grow fires into an idle cluster), and phase two runs on whatever world is
// alive. A full-world allreduce-sum equalizes every participant, so "all
// finished and agree" is the correctness check.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"
#include "src/fault/recovery.h"

namespace mcrdl::fault {
namespace {

struct RejoinRun {
  std::vector<double> finals;    // final tensor value per rank (0 = did not finish)
  std::vector<int> died_phase_one;  // rank broke out of phase one
};

// The deterministic loss recipe from recovery_test.cc with one twist: the
// dying rank goes silent shortly before it is declared lost (so survivors
// are parked in a pending rendezvous when the loss event fires), but the
// straggler window is *bounded at the loss instant* — the rank must come
// back healthy if a later rejoin re-admits it.
void add_loss(FaultPlan& plan, int rank, SimTime at) {
  plan.specs.push_back(
      FaultSpec::straggler(rank, 10 * at, /*from_us=*/at * 0.8, /*until_us=*/at));
  plan.specs.push_back(FaultSpec::lose_rank(rank, at));
}

// `iters` allreduce-sum iterations per phase on mv2-gdr, 400us apart. A rank
// that dies in phase one *breaks* (it may come back); the barrier sleeps
// everyone past `rejoin_us`; phase two runs on the then-alive world.
RejoinRun run_two_phase(McrDl& mcr, ClusterContext& cluster, int iters, SimTime rejoin_us,
                        std::size_t elems = 64) {
  RejoinRun out;
  const auto world = static_cast<std::size_t>(cluster.world_size());
  out.finals.assign(world, 0.0);
  out.died_phase_one.assign(world, 0);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({static_cast<int>(elems)}, DType::F32,
                            static_cast<double>(rank + 1), cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) {
        out.died_phase_one[static_cast<std::size_t>(rank)] = 1;
        break;
      }
      try {
        api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        out.died_phase_one[static_cast<std::size_t>(rank)] = 1;
        break;
      }
      cluster.scheduler().sleep_for(400.0);
    }
    const SimTime wake = rejoin_us + 401.0;
    if (cluster.scheduler().now() < wake) {
      cluster.scheduler().sleep_for(wake - cluster.scheduler().now());
    }
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) return;
      try {
        api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        return;
      }
      cluster.scheduler().sleep_for(400.0);
    }
    api.synchronize();
    out.finals[static_cast<std::size_t>(rank)] = t.get(0);
  });
  return out;
}

// Ranks in `alive` all finished phase two and hold the same positive value;
// everyone else never finished.
void check_alive_agree(const RejoinRun& run, const std::vector<int>& alive) {
  ASSERT_FALSE(alive.empty());
  const double got = run.finals[static_cast<std::size_t>(alive.front())];
  EXPECT_GT(got, 0.0);
  for (std::size_t r = 0; r < run.finals.size(); ++r) {
    const bool expected_alive =
        std::find(alive.begin(), alive.end(), static_cast<int>(r)) != alive.end();
    if (expected_alive) {
      EXPECT_DOUBLE_EQ(run.finals[r], got) << "alive ranks diverged at rank " << r;
    } else {
      EXPECT_DOUBLE_EQ(run.finals[r], 0.0) << "dead rank " << r << " finished";
    }
  }
}

// --- unit level -------------------------------------------------------------

TEST(RejoinTest, RejoinOfNeverLostRankIsRejected) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::lose_rank(3, 1e9));  // far future: arms, never fires
  inj.configure(plan);
  RecoveryManager& rec = inj.recovery();
  rec.arm(4);
  ASSERT_TRUE(rec.armed());

  rec.on_rank_rejoin({2});
  EXPECT_EQ(rec.epoch(), 0u) << "a rejected rejoin must not open an epoch";
  EXPECT_EQ(rec.stats().rejoins_rejected, 1u);
  EXPECT_EQ(rec.stats().ranks_rejoined, 0u);
  EXPECT_EQ(rec.stats().grow_events, 0u);
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(RejoinTest, DoubleRejoinSecondIsRejected) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::lose_rank(3, 1e9));
  inj.configure(plan);
  RecoveryManager& rec = inj.recovery();
  rec.arm(4);

  rec.on_rank_loss({1});
  EXPECT_EQ(rec.epoch(), 1u);
  rec.on_rank_rejoin({1});
  EXPECT_EQ(rec.epoch(), 2u);
  EXPECT_EQ(rec.stats().ranks_rejoined, 1u);
  EXPECT_EQ(rec.stats().grow_events, 1u);
  EXPECT_FALSE(rec.lost(1));
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 3}));

  rec.on_rank_rejoin({1});  // already back: rejected, nothing changes
  EXPECT_EQ(rec.epoch(), 2u);
  EXPECT_EQ(rec.stats().ranks_rejoined, 1u);
  EXPECT_EQ(rec.stats().grow_events, 1u);
  EXPECT_EQ(rec.stats().rejoins_rejected, 1u);
}

TEST(RejoinTest, MixedRejoinAdmitsOnlyTheLost) {
  // One event naming a lost rank and a healthy one: the lost rank is
  // admitted (one grow epoch), the healthy one rejected.
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::lose_rank(3, 1e9));
  inj.configure(plan);
  RecoveryManager& rec = inj.recovery();
  rec.arm(4);
  rec.on_rank_loss({1, 2});

  rec.on_rank_rejoin({0, 1});
  EXPECT_EQ(rec.stats().ranks_rejoined, 1u);
  EXPECT_EQ(rec.stats().rejoins_rejected, 1u);
  EXPECT_EQ(rec.stats().grow_events, 1u);
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 3}));
}

// --- end-to-end scenarios ---------------------------------------------------

TEST(RejoinTest, LossThenRejoinRestoresTheFullWorld) {
  ClusterContext cluster(net::SystemConfig::lassen(1));  // 4 ranks
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(FaultSpec::rejoin_rank(1, 30000.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});
  ASSERT_TRUE(mcr.recovery().armed());

  const RejoinRun run = run_two_phase(mcr, cluster, /*iters=*/6, /*rejoin_us=*/30000.0);
  EXPECT_TRUE(run.died_phase_one[1]);
  check_alive_agree(run, {0, 1, 2, 3});

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 1u);
  EXPECT_EQ(stats.ranks_rejoined, 1u);
  EXPECT_EQ(stats.grow_events, 1u);
  EXPECT_EQ(stats.epochs, 2u) << "one shrink cycle + one grow cycle";
  EXPECT_FALSE(mcr.recovery().lost(1));
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 2, 3}));

  // Counters mirror into the resilience report and the metrics registry.
  ASSERT_NE(mcr.failover(), nullptr);
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_EQ(report.ranks_rejoined, 1u);
  EXPECT_EQ(report.grow_events, 1u);
  EXPECT_EQ(cluster.metrics().counter_value("recovery_grow_events"), 1u);
  EXPECT_EQ(cluster.metrics().counter_value("recovery_grow_ranks_rejoined"), 1u);
}

TEST(RejoinTest, WarmSpareStartsExcludedAndGrowsIn) {
  // Rank 3 is a warm spare: excluded from the initial world (rank_loss at
  // t=0, applied synchronously at arm) and admitted by a rejoin spec. The
  // run starts on 3 ranks and finishes on 4.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.spare_ranks = {3};
  opts.fault.plan.specs.push_back(FaultSpec::rejoin_rank(3, 8000.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});
  ASSERT_TRUE(mcr.recovery().armed());
  EXPECT_TRUE(mcr.recovery().lost(3)) << "the spare must start excluded";
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 2}));

  const RejoinRun run = run_two_phase(mcr, cluster, /*iters=*/6, /*rejoin_us=*/8000.0);
  EXPECT_TRUE(run.died_phase_one[3]);  // never entered phase one
  check_alive_agree(run, {0, 1, 2, 3});
  EXPECT_EQ(mcr.recovery().stats().ranks_rejoined, 1u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(RejoinTest, LossAndRejoinAtTheSameInstantProcessLossFirst) {
  // At t=30000 rank 2 dies and rank 1 (lost at 2500) comes back, in one
  // combined event: the loss's quiesce runs first, then the grow admits the
  // rejoiner into the already-shrunk world. Net world: {0, 1, 3}.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(FaultSpec::lose_rank(2, 30000.0));
  opts.fault.plan.specs.push_back(FaultSpec::rejoin_rank(1, 30000.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const RejoinRun run = run_two_phase(mcr, cluster, /*iters=*/6, /*rejoin_us=*/30000.0);
  EXPECT_TRUE(run.died_phase_one[1]);
  check_alive_agree(run, {0, 1, 3});

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 2u);
  EXPECT_EQ(stats.ranks_rejoined, 1u);
  EXPECT_EQ(stats.grow_events, 1u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 3}));
}

TEST(RejoinTest, LossAfterGrowComposesEpochs) {
  // Rank 1 dies, rejoins, and then rank 2 dies mid-phase-two: the shrink
  // after the grow must open a fresh epoch and the freshly rejoined rank
  // must survive it like any other member of the enlarged world.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(FaultSpec::rejoin_rank(1, 30000.0));
  add_loss(opts.fault.plan, /*rank=*/2, /*at=*/31500.0);
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const RejoinRun run = run_two_phase(mcr, cluster, /*iters=*/6, /*rejoin_us=*/30000.0);
  EXPECT_TRUE(run.died_phase_one[1]);
  check_alive_agree(run, {0, 1, 3});

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 2u);
  EXPECT_EQ(stats.ranks_rejoined, 1u);
  EXPECT_EQ(stats.epochs, 3u) << "shrink + grow + shrink";
  EXPECT_FALSE(mcr.recovery().lost(1));
  EXPECT_TRUE(mcr.recovery().lost(2));
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 3}));
}

TEST(RejoinTest, StaleEpochOpsAfterGrowAreBouncedNotDeadlocked) {
  // Phase two opens with a transient window whose retry backoff spans a
  // second loss: the retries — issued by the enlarged world, including the
  // freshly rejoined rank 1 — reach the issue stage stamped with the grow
  // epoch in a newer epoch's world. They must be bounced (stale_rejections)
  // and replayed on the shrunk group, never issued against it.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(FaultSpec::rejoin_rank(1, 30000.0));
  opts.fault.plan.specs.push_back(
      FaultSpec::transient("mv2-gdr", 1.0, /*from_us=*/30401.0, /*until_us=*/31000.0));
  opts.fault.plan.specs.push_back(FaultSpec::lose_rank(2, 31000.0));
  opts.fault.retry.base_backoff_us = 2000.0;  // the backoff crosses the loss
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const RejoinRun run = run_two_phase(mcr, cluster, /*iters=*/6, /*rejoin_us=*/30000.0);
  EXPECT_TRUE(run.died_phase_one[1]);
  check_alive_agree(run, {0, 1, 3});

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_GT(stats.stale_rejections, 0u);
  EXPECT_EQ(stats.ranks_rejoined, 1u);
  EXPECT_EQ(stats.ranks_lost, 2u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 3}));
}

}  // namespace
}  // namespace mcrdl::fault
