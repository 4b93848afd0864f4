// FailoverRouter routing rules, and end-to-end chaos runs through the full
// MCR-DL stack: retries, breaker trips and backend failover must leave the
// *data* identical to a fault-free run.
#include "src/fault/failover.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"
#include "src/obs/metrics.h"

namespace mcrdl::fault {
namespace {

const std::vector<std::string> kOrder = {"nccl", "sccl", "mv2-gdr"};

TEST(FailoverRouter, PrefersTheHealthyPreferredBackend) {
  FailoverRouter router(nullptr, RetryPolicy{}, 3, /*failover_enabled=*/true);
  EXPECT_EQ(router.select("nccl", kOrder, 0), "nccl");
}

TEST(FailoverRouter, SelectSkipsAnOpenBreaker) {
  FailoverRouter router(nullptr, RetryPolicy{}, 1, true);
  router.record_failure("nccl", 0);  // threshold 1: trips immediately
  EXPECT_FALSE(router.healthy("nccl", 0));
  EXPECT_EQ(router.select("nccl", kOrder, 0), "sccl");
}

TEST(FailoverRouter, HealthIsPerRankAndIgnoresLiveOutageState) {
  // Routing must not consult the injector's live (time-based) outage state:
  // a straggling rank would otherwise take a different route than the ranks
  // that issued the same logical op before the outage instant. Outages are
  // observed through the per-rendezvous verdict at issue instead, which is
  // identical for every participant.
  sim::Scheduler sched;
  FaultInjector inj(&sched);
  FaultPlan plan;
  plan.specs.push_back(FaultSpec::outage("nccl", 0.0));
  inj.configure(plan);
  FailoverRouter router(&inj, RetryPolicy{}, 1, true);
  EXPECT_TRUE(router.healthy("nccl", 0));
  EXPECT_EQ(router.select("nccl", kOrder, 0), "nccl");
  router.record_failure("nccl", 0);  // the verdict observed at issue
  EXPECT_FALSE(router.healthy("nccl", 0));
  EXPECT_EQ(router.select("nccl", kOrder, 0), "sccl");
  EXPECT_TRUE(router.healthy("nccl", 1));  // rank 1 hasn't observed it yet
  EXPECT_EQ(router.select("nccl", kOrder, 1), "nccl");
}

TEST(FailoverRouter, NextHealthyScansPastTheFailedBackend) {
  FailoverRouter router(nullptr, RetryPolicy{}, 1, true);
  EXPECT_EQ(router.next_healthy("nccl", "nccl", kOrder, 0), "sccl");
  router.record_failure("sccl", 0);
  EXPECT_EQ(router.next_healthy("nccl", "nccl", kOrder, 0), "mv2-gdr");
}

// The preference order is the preferred backend, then init order without it.
TEST(FailoverRouter, NextHealthyWalksPreferredThenInitOrder) {
  FailoverRouter router(nullptr, RetryPolicy{}, 1, true);
  // Order mv2-gdr, nccl, sccl: after nccl comes sccl.
  EXPECT_EQ(router.next_healthy("nccl", "mv2-gdr", kOrder, 0), "sccl");
  // After sccl the walk wraps to the preferred backend.
  EXPECT_EQ(router.next_healthy("sccl", "mv2-gdr", kOrder, 0), "mv2-gdr");
  router.record_failure("sccl", 0);
  EXPECT_EQ(router.next_healthy("nccl", "mv2-gdr", kOrder, 0), "mv2-gdr");
  router.record_failure("mv2-gdr", 0);
  EXPECT_EQ(router.select("mv2-gdr", kOrder, 0), "nccl");
}

TEST(FailoverRouter, ThrowsWhenNothingIsHealthy) {
  FailoverRouter router(nullptr, RetryPolicy{}, 1, true);
  for (const auto& b : kOrder) router.record_failure(b, 0);
  EXPECT_THROW(router.select("nccl", kOrder, 0), BackendUnavailable);
  EXPECT_THROW(router.next_healthy("nccl", "nccl", kOrder, 0), BackendUnavailable);
}

TEST(FailoverRouter, DisabledFailoverRefusesToReroute) {
  FailoverRouter router(nullptr, RetryPolicy{}, 1, /*failover_enabled=*/false);
  router.record_failure("nccl", 0);
  EXPECT_THROW(router.select("nccl", kOrder, 0), BackendUnavailable);
  EXPECT_THROW(router.next_healthy("nccl", "nccl", kOrder, 0), BackendUnavailable);
}

// --- report formatting ------------------------------------------------------
//
// The report string is parsed by tools/ci.sh (it greps the recovered-ops
// line), so the format is pinned exactly here: changing it is an interface
// change, not a cosmetic one.

TEST(ResilienceReportFormat, BaseReportOmitsRecoveryAndPerBackendBlocks) {
  ResilienceReport report;
  report.attempted = 12;
  report.succeeded = 10;
  report.retried = 3;
  report.rerouted = 2;
  report.failed = 1;
  report.breakers_tripped = 1;
  report.backoff_time_us = 450.5;
  EXPECT_EQ(report.to_string(),
            "resilience report:\n"
            "  operations succeeded : 10\n"
            "  issue attempts       : 12\n"
            "  retries (transient)  : 3\n"
            "  rerouted (failover)  : 2\n"
            "  failed permanently   : 1\n"
            "  breakers tripped     : 1\n"
            "  backoff virtual time : 450.5 us\n");
}

TEST(ResilienceReportFormat, RecoveryAndPerBackendBlocksPinTheirLayout) {
  ResilienceReport report;
  report.attempted = 9;
  report.succeeded = 9;
  report.ranks_lost = 2;
  report.epochs = 1;
  report.recovered = 6;
  report.stale_rejections = 3;
  report.by_backend["nccl"].failed = 1;
  report.by_backend["nccl"].rerouted = 4;
  report.by_backend["mv2-gdr"].rerouted = 0;
  EXPECT_EQ(report.to_string(),
            "resilience report:\n"
            "  operations succeeded : 9\n"
            "  issue attempts       : 9\n"
            "  retries (transient)  : 0\n"
            "  rerouted (failover)  : 0\n"
            "  failed permanently   : 0\n"
            "  breakers tripped     : 0\n"
            "  backoff virtual time : 0 us\n"
            "  ranks lost           : 2\n"
            "  recovery epochs      : 1\n"
            "  recovered ops        : 6\n"
            "  stale-epoch rejects  : 3\n"
            "  per-backend:\n"
            "    mv2-gdr : failed 0, rerouted away 0\n"
            "    nccl    : failed 1, rerouted away 4\n");
}

TEST(ResilienceReportFormat, GrowBackBlockPinsItsLayout) {
  // The grow block (and the per-backend `grow drained` suffix) appears only
  // when grow-back actually happened, so shrink-only reports — and the
  // ci.sh greps over them — keep their exact bytes. The rejoin smoke greps
  // the `ranks rejoined` line, so this layout is pinned too.
  ResilienceReport report;
  report.attempted = 4;
  report.succeeded = 4;
  report.ranks_lost = 1;
  report.epochs = 2;
  report.recovered = 3;
  report.ranks_rejoined = 1;
  report.grow_events = 1;
  report.checkpoint_restores = 2;
  report.by_backend["mv2-gdr"].grow_drained = 5;
  report.by_backend["nccl"].rerouted = 1;
  EXPECT_EQ(report.to_string(),
            "resilience report:\n"
            "  operations succeeded : 4\n"
            "  issue attempts       : 4\n"
            "  retries (transient)  : 0\n"
            "  rerouted (failover)  : 0\n"
            "  failed permanently   : 0\n"
            "  breakers tripped     : 0\n"
            "  backoff virtual time : 0 us\n"
            "  ranks lost           : 1\n"
            "  recovery epochs      : 2\n"
            "  recovered ops        : 3\n"
            "  stale-epoch rejects  : 0\n"
            "  ranks rejoined       : 1\n"
            "  grow events          : 1\n"
            "  checkpoint restores  : 2\n"
            "  per-backend:\n"
            "    mv2-gdr : failed 0, rerouted away 0, grow drained 5\n"
            "    nccl    : failed 0, rerouted away 1\n");
}

TEST(ResilienceReportFormat, PerBackendCountersFillFromEndToEndFailover) {
  // The by_backend breakdown is populated by the route stage: the backend
  // traffic was rerouted *away from* gets the credit.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::outage("nccl", 0.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({16}, DType::F32, 1.0, cluster.device(rank));
    api.all_reduce("nccl", t, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(t.get(0), 4.0);
  });
  const ResilienceReport& report = mcr.failover()->report();
  ASSERT_EQ(report.by_backend.count("nccl"), 1u);
  EXPECT_GT(report.by_backend.at("nccl").rerouted, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_NE(report.to_string().find("per-backend:"), std::string::npos);
  EXPECT_NE(report.to_string().find("rerouted away"), std::string::npos);
}

// --- end-to-end chaos runs --------------------------------------------------

// Runs `iters` allreduces on the requested backend and returns each rank's
// final tensor value (every op scales the data deterministically).
std::vector<double> run_workload(McrDl& mcr, ClusterContext& cluster, int iters) {
  std::vector<double> finals(cluster.world_size(), 0.0);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({64}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      api.all_reduce("nccl", t, ReduceOp::Sum);
      cluster.scheduler().sleep_for(100.0);  // spread iterations over time
    }
    api.synchronize();  // nccl is stream-synchronised; drain before reading
    finals[rank] = t.get(0);
  });
  return finals;
}

TEST(FailoverEndToEnd, MidRunOutageFailsOverWithIdenticalResults) {
  // Baseline: no faults.
  ClusterContext base_cluster(net::SystemConfig::lassen(1));
  McrDl base(&base_cluster);
  base.init({"nccl", "mv2-gdr"});
  const std::vector<double> expected = run_workload(base, base_cluster, 6);

  // Chaos: nccl goes down for good mid-run; ops must move to mv2-gdr.
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.logging_enabled = true;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::outage("nccl", 250.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  const std::vector<double> got = run_workload(mcr, cluster, 6);

  EXPECT_EQ(got, expected);  // zero wrong results
  ASSERT_NE(mcr.failover(), nullptr);
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_GT(report.rerouted, 0u);
  EXPECT_EQ(report.failed, 0u);
  // The outage is observed at issue (failed attempts), then pre-routed once
  // each rank's breaker trips — so attempts exceed completions.
  EXPECT_GT(report.attempted, report.succeeded);

  // The reroute is visible in the log: records that asked for nccl but ran
  // on mv2-gdr, flagged as rerouted.
  bool saw_reroute = false;
  for (const auto& r : mcr.logger().records()) {
    if (r.rerouted) {
      saw_reroute = true;
      EXPECT_EQ(r.backend, "mv2-gdr");
      EXPECT_EQ(r.requested_backend, "nccl");
      EXPECT_EQ(r.fault, "unavailable");
    }
  }
  EXPECT_TRUE(saw_reroute);
}

TEST(FailoverEndToEnd, TransientFaultIsRetriedAndSucceeds) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.logging_enabled = true;
  opts.fault.enabled = true;
  // Every attempt in the first 40us fails; the 200us backoff pushes the
  // retry safely past the window, so attempt 2 succeeds.
  opts.fault.plan.specs.push_back(FaultSpec::transient("mv2-gdr", 1.0, 0.0, 40.0));
  opts.fault.retry.base_backoff_us = 200.0;
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({16}, DType::F32, 1.0, cluster.device(rank));
    api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(t.get(0), 4.0);
  });
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_GT(report.retried, 0u);
  EXPECT_EQ(report.rerouted, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.backoff_time_us, 0.0);
  EXPECT_GT(cluster.faults().stats().transient_injected, 0u);
  // Retries show up in the trace metadata.
  bool saw_retry = false;
  for (const auto& r : mcr.logger().records()) {
    if (r.attempts > 1) {
      saw_retry = true;
      EXPECT_EQ(r.fault, "transient");
      EXPECT_FALSE(r.rerouted);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(FailoverEndToEnd, RetryExhaustionWithoutAlternativesRaises) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::transient("nccl", 1.0));  // always fails
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});  // nowhere to fail over to
  EXPECT_THROW(cluster.run_spmd([&](int rank) {
                 Api api = mcr.on(rank);
                 Tensor t = Tensor::full({16}, DType::F32, 1.0, cluster.device(rank));
                 api.all_reduce("nccl", t, ReduceOp::Sum);
               }),
               TransientFault);
  EXPECT_GT(mcr.failover()->report().failed, 0u);
}

TEST(FailoverEndToEnd, PersistentTransientsTripTheBreakerAndReroute) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::transient("nccl", 1.0));
  opts.fault.breaker_threshold = 3;  // == default max_attempts
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({16}, DType::F32, 1.0, cluster.device(rank));
    for (int i = 0; i < 3; ++i) api.all_reduce("nccl", t, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(t.get(0), 64.0);  // 1 * 4^3: every allreduce completed
  });
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_GT(report.breakers_tripped, 0u);
  EXPECT_GT(report.rerouted, 0u);
  EXPECT_EQ(report.failed, 0u);
  for (int rank = 0; rank < cluster.world_size(); ++rank) {
    EXPECT_FALSE(mcr.failover()->healthy("nccl", rank));
    EXPECT_TRUE(mcr.failover()->healthy("mv2-gdr", rank));
  }
}

TEST(FailoverEndToEnd, BreakerClosesAfterOutageEndsAndTrafficReturns) {
  // A *windowed* fault: nccl fails every attempt until t=250us, then is
  // fine. The breaker must trip during the window, age open→half-open on the
  // denied ops that follow, probe nccl once the window has passed, close,
  // and route the tail of the run back to the preferred backend — with the
  // data still identical to a fault-free run.
  ClusterContext base_cluster(net::SystemConfig::lassen(1));
  McrDl base(&base_cluster);
  base.init({"nccl", "mv2-gdr"});
  const std::vector<double> expected = run_workload(base, base_cluster, 10);

  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.logging_enabled = true;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::transient("nccl", 1.0, 0.0, 250.0));
  opts.fault.breaker_threshold = 3;  // trips inside the first op's retry ladder
  opts.fault.breaker_probe_after_ops = 2;
  opts.fault.breaker_cooldown = 1;
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  const std::vector<double> got = run_workload(mcr, cluster, 10);

  EXPECT_EQ(got, expected);  // zero wrong results through trip + recovery
  const ResilienceReport& report = mcr.failover()->report();
  EXPECT_GT(report.breakers_tripped, 0u);
  EXPECT_GT(report.rerouted, 0u);
  EXPECT_EQ(report.failed, 0u);

  // Every rank's breaker ended the run closed: the probe succeeded.
  for (int rank = 0; rank < cluster.world_size(); ++rank) {
    EXPECT_TRUE(mcr.failover()->healthy("nccl", rank)) << "rank " << rank;
  }

  // Traffic returned: each rank's final logged op ran on nccl, un-rerouted.
  const std::vector<CommRecord> records = mcr.logger().records();
  std::map<int, const CommRecord*> last;
  for (const auto& r : records) last[r.rank] = &r;
  ASSERT_EQ(last.size(), static_cast<std::size_t>(cluster.world_size()));
  for (const auto& [rank, r] : last) {
    EXPECT_EQ(r->backend, "nccl") << "rank " << rank;
    EXPECT_FALSE(r->rerouted) << "rank " << rank;
  }

  // The full open → half-open → closed cycle surfaced as metrics events,
  // once per rank.
  const auto world = static_cast<std::uint64_t>(cluster.world_size());
  obs::MetricsRegistry& metrics = cluster.metrics();
  EXPECT_EQ(metrics.counter_value("breaker_transitions",
                                  {{"backend", "nccl"}, {"to", "open"}}),
            world);
  EXPECT_EQ(metrics.counter_value("breaker_transitions",
                                  {{"backend", "nccl"}, {"to", "half_open"}}),
            world);
  EXPECT_EQ(metrics.counter_value("breaker_transitions",
                                  {{"backend", "nccl"}, {"to", "closed"}}),
            world);
}

TEST(FailoverEndToEnd, PointToPointRetriesStayPaired) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.specs.push_back(FaultSpec::transient("nccl", 1.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  cluster.run_spmd(2, [&](int rank) {
    Api api = mcr.on(rank);
    if (rank == 0) {
      Tensor t = Tensor::full({8}, DType::F32, 7.0, cluster.device(rank));
      api.send("nccl", t, 1);
    } else {
      Tensor t = Tensor::zeros({8}, DType::F32, cluster.device(rank));
      api.recv("nccl", t, 0);
      EXPECT_DOUBLE_EQ(t.get(0), 7.0);  // delivered despite the doomed backend
    }
  });
  EXPECT_GT(mcr.failover()->report().rerouted, 0u);
}

TEST(FailoverEndToEnd, StragglerPlusTransientsKeepRetryLaddersAligned) {
  // Regression: a straggling rank joins each op's rendezvous long after the
  // other ranks have moved on — possibly to failures of a *later* op. With
  // breaker health shared across ranks, those later failures could trip the
  // breaker while the straggler was still mid-way through an earlier op's
  // retry ladder, sending it to a different backend than the ranks already
  // parked in the nccl retry rendezvous: a virtual-time deadlock. Health is
  // per-rank precisely so this combination stays aligned.
  ClusterContext base_cluster(net::SystemConfig::lassen(1));
  McrDl base(&base_cluster);
  base.init({"nccl", "mv2-gdr"});
  const std::vector<double> expected = run_workload(base, base_cluster, 6);

  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDlOptions opts;
  opts.fault.enabled = true;
  opts.fault.plan.seed = 99;
  opts.fault.plan.specs.push_back(FaultSpec::transient("nccl", 0.4));
  opts.fault.plan.specs.push_back(FaultSpec::straggler(3, 400.0));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  const std::vector<double> got = run_workload(mcr, cluster, 6);

  EXPECT_EQ(got, expected);
  EXPECT_EQ(mcr.failover()->report().failed, 0u);
}

TEST(FailoverEndToEnd, EmptyPlanLeavesVirtualTimeUntouched) {
  // Enabling the subsystem with no faults must not change the timeline: the
  // injector short-circuits and the router issues exactly once.
  auto timed_run = [](bool with_fault_layer) {
    ClusterContext cluster(net::SystemConfig::lassen(1));
    McrDlOptions opts;
    opts.fault.enabled = with_fault_layer;
    McrDl mcr(&cluster, opts);
    mcr.init({"nccl", "mv2-gdr"});
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      Tensor t = Tensor::full({4096}, DType::F32, 1.0, cluster.device(rank));
      api.all_reduce("nccl", t, ReduceOp::Sum);
      Tensor o = Tensor::zeros({4096}, DType::F32, cluster.device(rank));
      api.all_to_all_single("mv2-gdr", o, t);
      api.synchronize();
    });
    return cluster.scheduler().now();
  };
  EXPECT_DOUBLE_EQ(timed_run(false), timed_run(true));
}

TEST(FailoverEndToEnd, LinkDegradationSlowsVirtualTimeWithoutErrors) {
  auto timed_run = [](double beta_factor) {
    ClusterContext cluster(net::SystemConfig::lassen(2));
    McrDlOptions opts;
    opts.fault.enabled = true;
    if (beta_factor != 1.0) {
      opts.fault.plan.specs.push_back(
          FaultSpec::degrade_links("nccl", beta_factor, LinkScope::InterNode));
    }
    McrDl mcr(&cluster, opts);
    mcr.init({"nccl"});
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      Tensor t = Tensor::full({1 << 20}, DType::F32, 1.0, cluster.device(rank));
      api.all_reduce("nccl", t, ReduceOp::Sum);
      api.synchronize();  // drain the nccl stream before reading
      EXPECT_DOUBLE_EQ(t.get(0), 8.0);
    });
    return cluster.scheduler().now();
  };
  EXPECT_GT(timed_run(4.0), timed_run(1.0));
}

TEST(FailoverEndToEnd, StragglerDelaysOnlyItsRankAndTheCollectiveWaits) {
  auto timed_run = [](SimTime delay) {
    ClusterContext cluster(net::SystemConfig::lassen(1));
    McrDlOptions opts;
    opts.fault.enabled = true;
    if (delay > 0.0) opts.fault.plan.specs.push_back(FaultSpec::straggler(2, delay));
    McrDl mcr(&cluster, opts);
    mcr.init({"mv2-gdr"});
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      Tensor t = Tensor::full({64}, DType::F32, 1.0, cluster.device(rank));
      api.all_reduce("mv2-gdr", t, ReduceOp::Sum);
      EXPECT_DOUBLE_EQ(t.get(0), 4.0);
    });
    return cluster.scheduler().now();
  };
  const SimTime clean = timed_run(0.0);
  const SimTime delayed = timed_run(500.0);
  // The whole collective finishes later because it rendezvouses with the
  // injected straggler.
  EXPECT_GE(delayed, clean + 500.0);
}

}  // namespace
}  // namespace mcrdl::fault
