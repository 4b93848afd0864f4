// Elastic recovery end-to-end: quiesce -> shrink -> resume after permanent
// rank loss. Every scenario runs on mv2-gdr (host-synchronous, so errors
// surface to the issuing rank — the stream backends' async gap is a
// documented limitation) and must terminate deterministically: survivors
// agree with each other, dead ranks unwind cleanly, and nothing hangs.
#include "src/fault/recovery.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"
#include "src/core/trace.h"

namespace mcrdl::fault {
namespace {

// --- unit level -------------------------------------------------------------

TEST(RecoveryManager, DescribeRankLossNamesOpBackendAndRanks) {
  const std::string msg = describe_rank_loss(OpType::AllReduce, "mv2-gdr", {3, 7});
  EXPECT_NE(msg.find(op_name(OpType::AllReduce)), std::string::npos);
  EXPECT_NE(msg.find("mv2-gdr"), std::string::npos);
  EXPECT_NE(msg.find("[3, 7]"), std::string::npos);
  EXPECT_NE(msg.find("permanently lost"), std::string::npos);
}

TEST(RecoveryManager, PlanRoundTripsRankLossSpecs) {
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::lose_rank(3, 2500.0));
  plan.specs.push_back(FaultSpec::lose_rank(5, 2500.0));
  const FaultPlan parsed = FaultPlan::parse(plan.serialize());
  ASSERT_EQ(parsed.specs.size(), 2u);
  EXPECT_EQ(parsed.specs[0].kind, FaultKind::RankLoss);
  EXPECT_EQ(parsed.specs[0].rank, 3);
  EXPECT_DOUBLE_EQ(parsed.specs[0].from_us, 2500.0);
  EXPECT_EQ(parsed.specs[1].rank, 5);
}

TEST(RecoveryManager, ArmWithoutRankLossSpecsStaysDisarmed) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::outage("nccl", 100.0));
  inj.configure(plan);
  inj.recovery().arm(4);
  EXPECT_FALSE(inj.recovery().armed());
  EXPECT_EQ(inj.recovery().epoch(), 0u);
}

TEST(RecoveryManager, LossAdvancesEpochAndShrinksSurvivors) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::lose_rank(3, 1e9));  // far future: never fires
  inj.configure(plan);
  RecoveryManager& rec = inj.recovery();
  rec.arm(8);
  ASSERT_TRUE(rec.armed());
  EXPECT_EQ(rec.phase(), RecoveryPhase::Idle);

  std::uint64_t drained_with = 0;
  const std::uint64_t id = rec.register_drain([&](const std::vector<int>& lost) {
    drained_with = lost.size();
    return std::uint64_t{2};
  });
  rec.on_rank_loss({3, 5});
  EXPECT_EQ(rec.epoch(), 1u);
  EXPECT_EQ(rec.phase(), RecoveryPhase::Resume);
  EXPECT_EQ(drained_with, 2u);
  EXPECT_TRUE(rec.lost(3));
  EXPECT_TRUE(rec.lost(5));
  EXPECT_FALSE(rec.lost(0));
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 4, 6, 7}));
  EXPECT_EQ(rec.shrink_group({2, 3, 4, 5}), (std::vector<int>{2, 4}));
  EXPECT_EQ(rec.stats().quiesced_ops, 2u);
  EXPECT_EQ(rec.stats().ranks_lost, 2u);
  EXPECT_EQ(rec.stats().epochs, 1u);

  // A second loss composes: already-lost ranks are ignored, epoch advances.
  rec.on_rank_loss({3, 6});
  EXPECT_EQ(rec.epoch(), 2u);
  EXPECT_EQ(rec.stats().ranks_lost, 3u);
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 4, 7}));
  rec.unregister_drain(id);
}

// A save_state() body: 8 ranks, epoch 2, ranks 3 and 5 lost, and counters
// in RecoveryStats field order (checkpoint_restores is never saved).
constexpr const char* kRecoveryBody =
    "world 8\n"
    "epoch 2\n"
    "lost 3 5\n"
    "stats 2 2 4 3 1 0 0 6\n";

TEST(RecoveryManager, SaveRestoreRoundTripsTheElasticState) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  RecoveryManager& rec = inj.recovery();
  obs::MetricsRegistry metrics;
  ResilienceReport report;
  rec.bind_metrics(&metrics);
  rec.bind_report(&report);
  // Blank lines are skipped, and restoring arms an unarmed manager.
  rec.restore_state(std::string("\n") + kRecoveryBody + "\n");
  EXPECT_TRUE(rec.armed());
  EXPECT_EQ(rec.epoch(), 2u);
  EXPECT_EQ(rec.lost_ranks(), (std::vector<int>{3, 5}));
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 4, 6, 7}));
  EXPECT_EQ(rec.stats().ranks_lost, 2u);
  EXPECT_EQ(rec.stats().epochs, 2u);
  EXPECT_EQ(rec.stats().quiesced_ops, 4u);
  EXPECT_EQ(rec.stats().recovered_ops, 3u);
  EXPECT_EQ(rec.stats().stale_rejections, 1u);
  EXPECT_EQ(rec.stats().rejoins_rejected, 6u);
  EXPECT_EQ(rec.stats().checkpoint_restores, 1u);
  EXPECT_EQ(report.ranks_lost, 2u);
  EXPECT_EQ(report.checkpoint_restores, 1u);
  EXPECT_EQ(metrics.counter_value("recovery_checkpoint_restores"), 1u);
  EXPECT_EQ(rec.save_state(), kRecoveryBody);

  // A second restore replaces the state and keeps counting restores.
  rec.restore_state("world 4\nepoch 0\nlost\nstats 0 0 0 0 0 0 0 0\n");
  EXPECT_EQ(rec.epoch(), 0u);
  EXPECT_TRUE(rec.lost_ranks().empty());
  EXPECT_EQ(rec.survivors(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rec.stats().checkpoint_restores, 2u);
  EXPECT_EQ(metrics.counter_value("recovery_checkpoint_restores"), 2u);
  EXPECT_EQ(rec.save_state(), "world 4\nepoch 0\nlost\nstats 0 0 0 0 0 0 0 0\n");
}

TEST(RecoveryManager, RestoreRejectsMalformedBodiesAndKeepsItsState) {
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  RecoveryManager& rec = inj.recovery();
  rec.restore_state(kRecoveryBody);
  const struct {
    const char* body;
    const char* error;
  } cases[] = {
      {"world 0\nepoch 2\nlost\nstats 0 0 0 0 0 0 0 0\n", "bad world line"},
      {"world eight\nepoch 2\nlost\nstats 0 0 0 0 0 0 0 0\n", "bad world line"},
      {"world 8\nepoch two\nlost\nstats 0 0 0 0 0 0 0 0\n", "bad epoch line"},
      {"world 8\nepoch 2\nlost\nstats 0 0 0\n", "bad stats line"},
      {"world 8\nepoch 2\nlost\nstats 0 0 0 0 0 0 0 0\nphase idle\n",
       "unknown line \"phase idle\""},
      {"world 8\nepoch 2\nlost\n", "missing world/epoch/lost/stats line"},
      {"epoch 2\nlost\nstats 0 0 0 0 0 0 0 0\n", "missing world/epoch/lost/stats line"},
      {"world 8\nlost\nstats 0 0 0 0 0 0 0 0\n", "missing world/epoch/lost/stats line"},
      {"world 8\nepoch 2\nstats 0 0 0 0 0 0 0 0\n", "missing world/epoch/lost/stats line"},
      {"", "missing world/epoch/lost/stats line"},
      {"world 8\nepoch 2\nlost 3 8\nstats 0 0 0 0 0 0 0 0\n", "lost rank out of range"},
      {"world 8\nepoch 2\nlost -1\nstats 0 0 0 0 0 0 0 0\n", "lost rank out of range"},
  };
  for (const auto& c : cases) {
    try {
      rec.restore_state(c.body);
      ADD_FAILURE() << "accepted: " << c.body;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << c.body << " -> " << e.what();
    }
  }
  // Nothing is applied before the whole body validates.
  EXPECT_EQ(rec.save_state(), kRecoveryBody);
  EXPECT_EQ(rec.stats().checkpoint_restores, 1u);
}

// --- end-to-end scenarios ---------------------------------------------------

struct ElasticRun {
  std::vector<double> finals;       // final tensor value per rank (0 if dead)
  std::vector<bool> died;           // rank exited before finishing its loop
  std::vector<bool> died_by_error;  // ... specifically via RankLostError
};

// `iters` allreduce-sum iterations on mv2-gdr, 400us apart, starting from
// rank+1. A rank whose loss instant has passed exits at the loop top; a rank
// whose collective surfaces RankLostError (the casualty itself — survivors
// have it replayed transparently by the recover stage) exits through the
// catch. Mirrors how a real training loop would consume the subsystem.
ElasticRun run_elastic(McrDl& mcr, ClusterContext& cluster, int iters, std::size_t elems = 64) {
  ElasticRun out;
  out.finals.assign(static_cast<std::size_t>(cluster.world_size()), 0.0);
  out.died.assign(static_cast<std::size_t>(cluster.world_size()), false);
  out.died_by_error.assign(static_cast<std::size_t>(cluster.world_size()), false);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({static_cast<int>(elems)}, DType::F32,
                            static_cast<double>(rank + 1), cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) {
        out.died[static_cast<std::size_t>(rank)] = true;
        return;
      }
      try {
        api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        out.died[static_cast<std::size_t>(rank)] = true;
        out.died_by_error[static_cast<std::size_t>(rank)] = true;
        return;
      }
      cluster.scheduler().sleep_for(400.0);
    }
    api.synchronize();
    out.finals[static_cast<std::size_t>(rank)] = t.get(0);
  });
  return out;
}

// Survivors must agree, and their common value must be explainable as: k
// iterations completed on the full world (k >= 1 leaves everyone holding
// sum(1..m) * m^(k-1)), then iters-k on the shrunk one — or all iterations on
// the shrunk world when the loss preempted iteration 0 (k == 0).
void check_survivor_value(const ElasticRun& run, int world, int iters) {
  std::vector<int> survivors;
  for (int r = 0; r < world; ++r) {
    if (!run.died[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  ASSERT_FALSE(survivors.empty());
  const double got = run.finals[static_cast<std::size_t>(survivors.front())];
  for (int r : survivors) {
    EXPECT_DOUBLE_EQ(run.finals[static_cast<std::size_t>(r)], got)
        << "survivors diverged at rank " << r;
  }
  const double m = static_cast<double>(world);
  const double w = static_cast<double>(survivors.size());
  double sub_sum = 0.0;
  for (int r : survivors) sub_sum += static_cast<double>(r + 1);
  bool matched = false;
  for (int k = 0; k <= iters && !matched; ++k) {
    const double candidate =
        k == 0 ? sub_sum * std::pow(w, iters - 1)
               : (m * (m + 1) / 2.0) * std::pow(m, k - 1) * std::pow(w, iters - k);
    matched = got == candidate;
  }
  EXPECT_TRUE(matched) << "survivor value " << got
                       << " is not a full-world/shrunk-world iteration split";
}

// The deterministic loss recipe used below: the dying rank goes silent
// (straggles) shortly before it is declared lost, so the survivors are
// parked in a pending rendezvous when the loss event fires — exactly the
// state quiesce exists to drain.
void add_loss(FaultPlan& plan, int rank, SimTime at) {
  plan.specs.push_back(FaultSpec::straggler(rank, 10 * at, /*from_us=*/at * 0.8));
  plan.specs.push_back(FaultSpec::lose_rank(rank, at));
}

TEST(ElasticRecovery, SingleRankLossShrinksAndSurvivorsAgree) {
  ClusterContext cluster(net::SystemConfig::lassen(1));  // 4 ranks
  McrDlOptions opts;
  opts.logging_enabled = true;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});
  ASSERT_TRUE(mcr.recovery().armed());

  const ElasticRun run = run_elastic(mcr, cluster, /*iters=*/10);
  EXPECT_TRUE(run.died[1]);
  EXPECT_FALSE(run.died[0]);
  EXPECT_FALSE(run.died[2]);
  EXPECT_FALSE(run.died[3]);
  check_survivor_value(run, cluster.world_size(), 10);

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 1u);
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_GT(stats.quiesced_ops, 0u);
  EXPECT_GT(stats.recovered_ops, 0u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 2, 3}));

  // The counters are mirrored into the resilience report...
  ASSERT_NE(mcr.failover(), nullptr);
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_EQ(report.ranks_lost, 1u);
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.recovered, stats.recovered_ops);
  EXPECT_EQ(report.failed, 0u);

  // ...and recovered ops surface in the comm log and the Chrome trace.
  bool saw_recovered = false;
  for (const CommRecord& r : mcr.logger().records()) {
    if (r.recovered) {
      saw_recovered = true;
      EXPECT_EQ(r.epoch, 1u);
      EXPECT_EQ(r.fault, "rank_lost");
    }
  }
  EXPECT_TRUE(saw_recovered);
  const std::string trace = to_chrome_trace(mcr.logger());
  EXPECT_NE(trace.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"recovered\":true"), std::string::npos);
  EXPECT_NE(trace.find("\"fault\":\"rank_lost\""), std::string::npos);
}

TEST(ElasticRecovery, WholeNodeLossIsOneEpoch) {
  ClusterContext cluster(net::SystemConfig::lassen(2));  // 8 ranks, 4 per node
  McrDlOptions opts;
  opts.fault.enabled = true;
  // Node 1 (ranks 4..7) goes down at one instant; one recovery epoch.
  opts.fault.plan.specs.push_back(FaultSpec::straggler(4, 25000.0, /*from_us=*/2000.0));
  for (int r = 4; r < 8; ++r) opts.fault.plan.specs.push_back(FaultSpec::lose_rank(r, 2500.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  // 7 iterations keeps every candidate value below 2^24, so the F32 sums
  // stay exact and the survivor-agreement check can compare doubles exactly.
  const int iters = 7;
  const ElasticRun run = run_elastic(mcr, cluster, iters);
  for (int r = 0; r < 4; ++r) EXPECT_FALSE(run.died[static_cast<std::size_t>(r)]);
  for (int r = 4; r < 8; ++r) EXPECT_TRUE(run.died[static_cast<std::size_t>(r)]);
  check_survivor_value(run, cluster.world_size(), iters);

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 4u);
  EXPECT_EQ(stats.epochs, 1u) << "simultaneous losses must collapse into one epoch";
  EXPECT_GT(stats.recovered_ops, 0u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(ElasticRecovery, LossDuringInFlightAllreduceDrainsAndReplays) {
  // Rank 2 (a survivor) straggles into iteration ~6 while rank 1 has already
  // joined: the allreduce is in flight — issued on every live rank, pending
  // at the rendezvous — when rank 1 is declared lost. The drain must cancel
  // it and the survivors (including the straggler, which finds the cancelled
  // rendezvous when it finally arrives) must replay it on the shrunk group.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::straggler(2, 10000.0, /*from_us=*/2050.0,
                                                       /*until_us=*/2500.0));
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const int iters = 10;
  const ElasticRun run = run_elastic(mcr, cluster, iters);
  EXPECT_TRUE(run.died[1]);
  EXPECT_FALSE(run.died[0]);
  EXPECT_FALSE(run.died[2]);
  EXPECT_FALSE(run.died[3]);
  check_survivor_value(run, cluster.world_size(), iters);

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_GT(stats.quiesced_ops, 0u) << "the in-flight allreduce was not drained";
  EXPECT_GT(stats.recovered_ops, 0u);
}

TEST(ElasticRecovery, LossDuringRecoveryComposesEpochs) {
  // Rank 1 dies at 2500us. Rank 2 straggles its epoch-1 replay, so when it
  // is itself declared lost at 2600us the cluster is still mid-recovery: the
  // second loss must cancel the epoch-1 replays and compose into epoch 2.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(FaultSpec::straggler(2, 25000.0, /*from_us=*/2500.0));
  opts.fault.plan.specs.push_back(FaultSpec::lose_rank(2, 2600.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const int iters = 10;
  const ElasticRun run = run_elastic(mcr, cluster, iters);
  EXPECT_TRUE(run.died[1]);
  EXPECT_TRUE(run.died[2]);
  EXPECT_FALSE(run.died[0]);
  EXPECT_FALSE(run.died[3]);
  // Two shrinks with replays in between make the exact value recipe-specific;
  // the invariant that matters is that the survivors agree and finished.
  EXPECT_DOUBLE_EQ(run.finals[0], run.finals[3]);
  EXPECT_GT(run.finals[0], 0.0);

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 2u);
  EXPECT_EQ(stats.epochs, 2u) << "a loss during recovery must open a fresh epoch";
  EXPECT_GT(stats.recovered_ops, 0u);
  EXPECT_EQ(mcr.recovery().survivors(), (std::vector<int>{0, 3}));
}

TEST(ElasticRecovery, StaleEpochOpsAreRejectedNotDeadlocked) {
  // A transient fault parks every rank in a retry backoff that spans the
  // loss instant. The retry then reaches the issue stage stamped with epoch
  // 0 in an epoch-1 world — it must be bounced (stale_rejections) and
  // replayed on the shrunk communicator, never issued against it.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(
      FaultSpec::transient("mv2-gdr", 1.0, /*from_us=*/1500.0, /*until_us=*/2500.0));
  opts.fault.plan.specs.push_back(FaultSpec::lose_rank(1, 2500.0));
  opts.fault.retry.base_backoff_us = 2000.0;  // the backoff crosses the loss
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  const int iters = 10;
  const ElasticRun run = run_elastic(mcr, cluster, iters);
  EXPECT_TRUE(run.died[1]);
  EXPECT_FALSE(run.died[0]);
  check_survivor_value(run, cluster.world_size(), iters);

  const RecoveryStats& stats = mcr.recovery().stats();
  EXPECT_GT(stats.stale_rejections, 0u);
  EXPECT_GT(stats.recovered_ops, 0u);
  EXPECT_EQ(stats.epochs, 1u);
}

TEST(ElasticRecovery, UnarmedWatchdogNamesTheLostRank) {
  // Without recovery armed (fault plan installed directly on the cluster,
  // not through McrDl options), a lost rank still gets a better diagnosis
  // than a generic timeout: the watchdog converts it to RankLostError when
  // every missing rank is lost.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  FaultPlan plan;
  plan.watchdog_deadline_us = 2000.0;
  plan.specs.push_back(FaultSpec::lose_rank(1, 500.0));
  cluster.faults().configure(plan);
  McrDl mcr(&cluster);
  mcr.init({"mv2-gdr"});
  ASSERT_FALSE(mcr.recovery().armed());

  std::string message;
  try {
    cluster.run_spmd([&](int rank) {
      if (rank == 1) return;  // never joins: dead from the workload's view
      Api api = mcr.on(rank);
      Tensor t = Tensor::full({16}, DType::F32, 1.0, cluster.device(rank));
      api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
    });
    FAIL() << "expected RankLostError";
  } catch (const RankLostError& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("[1]"), std::string::npos) << message;
  EXPECT_NE(message.find("permanently lost"), std::string::npos) << message;
}

TEST(ElasticRecovery, ShapeCoupledOpsAreUnrecoverable) {
  // An all_gather's output is sized for the old world; replaying it on a
  // smaller group cannot fill what the caller allocated. The loss must
  // surface (as RankLostError) instead of silently producing a short gather.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/700.0);
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});

  std::vector<bool> saw_loss(static_cast<std::size_t>(cluster.world_size()), false);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    const int world = cluster.world_size();
    for (int i = 0; i < 6; ++i) {
      if (cluster.faults().rank_lost(rank)) return;
      Tensor in = Tensor::full({16}, DType::F32, rank + 1.0, cluster.device(rank));
      Tensor out_t = Tensor::zeros({16 * world}, DType::F32, cluster.device(rank));
      try {
        api.all_gather("mv2-gdr", out_t, in);
      } catch (const RankLostError&) {
        saw_loss[static_cast<std::size_t>(rank)] = true;
        return;
      }
      cluster.scheduler().sleep_for(400.0);
    }
  });
  // Every survivor saw the unrecoverable loss; nothing hung, nothing was
  // silently replayed at the wrong shape.
  EXPECT_TRUE(saw_loss[0]);
  EXPECT_TRUE(saw_loss[2]);
  EXPECT_TRUE(saw_loss[3]);
  EXPECT_EQ(mcr.recovery().stats().recovered_ops, 0u);
}

}  // namespace
}  // namespace mcrdl::fault
