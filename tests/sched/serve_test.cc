// The serving scheduler: deterministic replay, tenant contention dilating
// service times through the real cost models, QoS-weighted fabric shares,
// chaos windows inflating the latency tail, and per-tenant SLO breakers
// shedding a struggling tenant's arrivals.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sched/serve.h"

namespace mcrdl::sched {
namespace {

JobSpec job(std::uint64_t id, const std::string& tenant, JobModel model, int ranks,
            QosClass qos, double arrival_us, int steps = 2) {
  JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.model = model;
  spec.ranks = ranks;
  spec.qos = qos;
  spec.arrival_us = arrival_us;
  spec.steps = steps;
  return spec;
}

ServeConfig small_config() {
  ServeConfig config;
  config.system = net::SystemConfig::lassen(4);  // 16 shared ranks
  return config;
}

// Selection gives exactly the nearest-rank values a full sort gives, ties
// and the smallest samples included.
TEST(Percentile, SelectionMatchesSort) {
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 99u, 100u, 101u}) {
    for (std::uint64_t distinct : {3u, 1000u}) {  // few distinct values: many ties
      std::vector<double> sample;
      for (std::size_t i = 0; i < n; ++i) {
        sample.push_back(static_cast<double>(rng.next_below(distinct)) * 0.5);
      }
      std::vector<double> selected = sample;
      const LatencyQuantiles q = select_p50_p99(selected);
      EXPECT_EQ(q.p50, percentile(sample, 50.0)) << "n=" << n << " distinct=" << distinct;
      EXPECT_EQ(q.p99, percentile(sample, 99.0)) << "n=" << n << " distinct=" << distinct;
    }
  }
  std::vector<double> empty;
  EXPECT_THROW(select_p50_p99(empty), InvalidArgument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> sample;
  for (int i = 1; i <= 100; ++i) sample.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(sample, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50.0), 42.0);
  EXPECT_THROW(percentile({}, 50.0), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 0.0), InvalidArgument);
}

// Every cache entry is measured on the cache's one TrainingHarness, so the
// actor stacks mapped for the widest slice serve every later entry.
TEST(JobCostCache, EntriesShareOneHarnessStackPool) {
  JobCostCache cache(net::SystemConfig::lassen(4));
  (void)cache.profile(JobModel::ResNet, 16);
  const std::size_t after_first = cache.stacks_mapped();
  EXPECT_GT(after_first, 0u) << "the entry was not measured on the cache's harness";
  (void)cache.profile(JobModel::MoE, 8);
  (void)cache.profile(JobModel::DLRM, 16, 2.0);
  (void)cache.profile(JobModel::Megatron, 4, 4.0);
  (void)cache.profile(JobModel::ResNet, 16, 1.5);
  EXPECT_EQ(cache.entries(), 5u);
  EXPECT_EQ(cache.stacks_mapped(), after_first) << "a later entry mapped stacks of its own";
}

// The "tuned" plan's tables cover every op the four job models run, so no
// "auto" op falls back to the default backend.
TEST(JobCostCache, TunedPlanCoversEveryModelOp) {
  JobCostCache cache(net::SystemConfig::lassen(4), "tuned");
  for (JobModel model : {JobModel::MoE, JobModel::DLRM, JobModel::Megatron, JobModel::ResNet}) {
    for (int ranks : {4, 8, 16}) (void)cache.profile(model, ranks);
  }
  EXPECT_EQ(cache.entries(), 12u);
  EXPECT_EQ(cache.tune_fallbacks(), 0u);
}

TEST(ServeScheduler, ReplayIsDeterministic) {
  TraceConfig trace_config;
  trace_config.num_jobs = 60;
  trace_config.seed = 11;
  const ArrivalTrace trace = generate_trace(trace_config);

  ServeScheduler a(small_config());
  ServeScheduler b(small_config());
  const ServeResult ra = a.run(trace);
  const ServeResult rb = b.run(trace);

  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.p50_latency_us, rb.p50_latency_us);  // bit-identical, not approx
  EXPECT_EQ(ra.p99_latency_us, rb.p99_latency_us);
  EXPECT_EQ(ra.makespan_us, rb.makespan_us);
  ASSERT_EQ(ra.jobs.size(), rb.jobs.size());
  for (std::size_t i = 0; i < ra.jobs.size(); ++i) {
    EXPECT_EQ(ra.jobs[i].spec.id, rb.jobs[i].spec.id);
    EXPECT_EQ(ra.jobs[i].state, rb.jobs[i].state);
    EXPECT_EQ(ra.jobs[i].start_us, rb.jobs[i].start_us);
    EXPECT_EQ(ra.jobs[i].finish_us, rb.jobs[i].finish_us);
  }

  // Replaying the trace's text round trip gives the same replay: the file
  // format loses nothing the scheduler reads.
  ServeScheduler c(small_config());
  const ServeResult rc = c.run(ArrivalTrace::parse(trace.serialize()));
  EXPECT_EQ(ra.p50_latency_us, rc.p50_latency_us);
  EXPECT_EQ(ra.p99_latency_us, rc.p99_latency_us);
}

TEST(ServeScheduler, TailDominatesMedianAndNoDeadlocks) {
  TraceConfig trace_config;
  trace_config.num_jobs = 80;
  trace_config.seed = 5;
  ServeScheduler scheduler(small_config());
  const ServeResult result = scheduler.run(generate_trace(trace_config));

  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.p50_latency_us, 0.0);
  EXPECT_GE(result.p99_latency_us, result.p50_latency_us);
  EXPECT_EQ(result.deadlocks, 0u);
  EXPECT_GT(result.avg_utilization, 0.0);
  // Every job reached a terminal state.
  std::uint64_t terminal = result.completed + result.rejected + result.shed;
  EXPECT_EQ(terminal, result.jobs.size());
}

// Two multi-node jobs sharing the fabric must each run slower than the
// same job alone — the dilation comes from the cost models via
// net::ContentionScale, not from a latency fudge.
TEST(ServeScheduler, ConcurrentJobsContendForTheFabric) {
  ServeConfig config = small_config();
  config.fabric_oversubscription = 4.0;  // tapered core: contention bites
  config.breaker_enabled = false;

  ArrivalTrace solo;
  solo.jobs.push_back(job(0, "tenant-0", JobModel::MoE, 8, QosClass::Gold, 0.0));
  ServeScheduler solo_scheduler(config);
  const ServeResult solo_result = solo_scheduler.run(solo);
  ASSERT_EQ(solo_result.completed, 1u);
  const double solo_service =
      solo_result.jobs[0].finish_us - solo_result.jobs[0].start_us;

  ArrivalTrace pair;
  pair.jobs.push_back(job(0, "tenant-0", JobModel::MoE, 8, QosClass::Gold, 0.0));
  pair.jobs.push_back(job(1, "tenant-1", JobModel::MoE, 8, QosClass::Gold, 0.0));
  ServeScheduler pair_scheduler(config);
  const ServeResult pair_result = pair_scheduler.run(pair);
  ASSERT_EQ(pair_result.completed, 2u);
  EXPECT_GT(pair_result.peak_contention, 1.0);
  for (const JobRecord& record : pair_result.jobs) {
    EXPECT_EQ(record.start_us, 0.0);  // both fit: 2 x 8 ranks on 16
    const double service = record.finish_us - record.start_us;
    EXPECT_GT(service, 1.2 * solo_service)
        << "job " << record.spec.id << " shows no contention dilation";
  }
}

// Under contention the QoS weight buys fabric share: a gold job beats an
// identical bronze job submitted at the same instant.
TEST(ServeScheduler, QosWeightsFavourGoldUnderContention) {
  ServeConfig config = small_config();
  config.fabric_oversubscription = 4.0;
  config.breaker_enabled = false;

  ArrivalTrace trace;
  trace.jobs.push_back(job(0, "gold-tenant", JobModel::MoE, 8, QosClass::Gold, 0.0));
  trace.jobs.push_back(job(1, "bronze-tenant", JobModel::MoE, 8, QosClass::Bronze, 0.0));
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  ASSERT_EQ(result.completed, 2u);

  const TenantStats& gold = result.tenants.at("gold-tenant");
  const TenantStats& bronze = result.tenants.at("bronze-tenant");
  EXPECT_LT(gold.p50_latency_us, bronze.p50_latency_us)
      << "gold's 4x bandwidth weight should finish it first";
}

TEST(ServeScheduler, ChaosWindowInflatesTheTail) {
  TraceConfig trace_config;
  trace_config.num_jobs = 60;
  trace_config.seed = 9;
  // Light load on the small world so the clean run is service-dominated —
  // the chaos window's damage then stands out instead of drowning in
  // queueing that was there anyway.
  trace_config.mean_interarrival_us = 400000.0;
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig clean_config = small_config();
  ServeScheduler clean(clean_config);
  const ServeResult clean_result = clean.run(trace);

  // Brown out the middle ~30% of the arrivals: enough jobs to own the p99,
  // few enough that the median stays near the clean-fabric service time.
  ServeConfig chaos_config = clean_config;
  chaos_config.chaos.push_back(ChaosWindow{0.35 * horizon, 0.65 * horizon, 8.0});
  ServeScheduler chaotic(chaos_config);
  const ServeResult chaos_result = chaotic.run(trace);

  EXPECT_EQ(chaos_result.deadlocks, 0u);
  EXPECT_GE(chaos_result.p99_latency_us, 1.5 * clean_result.p99_latency_us)
      << "an 8x fabric brown-out over a third of the trace must show in the p99";
  // Recovery: the median is much less inflated than the tail — jobs outside
  // the window are served at clean-fabric speed again.
  EXPECT_LT(chaos_result.p50_latency_us / clean_result.p50_latency_us,
            chaos_result.p99_latency_us / clean_result.p99_latency_us);
}

// A tenant whose jobs keep blowing their SLO trips its breaker: arrivals
// get shed while it is open, and the skip count re-admits a probe later.
TEST(ServeScheduler, BreakerShedsAStrugglingTenant) {
  ServeConfig config = small_config();
  config.fabric_oversubscription = 4.0;
  config.slo_factor = 1.5;  // tight SLO: contended jobs blow it
  config.breaker = fault::BreakerConfig{2, 2, 2};

  // One tenant hammers the cluster with overlapping multi-node jobs, the
  // arrivals spread wide enough that plenty are still inbound after the
  // first SLO misses trip the breaker.
  ArrivalTrace trace;
  for (int i = 0; i < 40; ++i) {
    trace.jobs.push_back(
        job(static_cast<std::uint64_t>(i), "hammer", JobModel::MoE, 8, QosClass::Gold,
            50000.0 * i, 4));
  }
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);

  EXPECT_GT(result.shed, 0u) << "the open breaker never shed an arrival";
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(scheduler.metrics().counter_value(
                "serve_breaker_transitions", {{"tenant", "hammer"}, {"to", "open"}}),
            0u);
  // The shed arrivals are marked distinctly from admission rejects.
  for (const JobRecord& record : result.jobs) {
    if (record.state == JobState::Rejected && record.reject_reason.rfind("shed:", 0) == 0) {
      EXPECT_EQ(record.spec.tenant, "hammer");
    }
  }

  // Same trace with breakers off: nothing is shed.
  ServeConfig no_breaker = config;
  no_breaker.breaker_enabled = false;
  ServeScheduler lenient(no_breaker);
  EXPECT_EQ(lenient.run(trace).shed, 0u);
}

TEST(ServeScheduler, RejectsOversizedAndQueueOverflow) {
  ServeConfig config = small_config();
  ArrivalTrace trace;
  // Bronze quota on 16 ranks is 8: this job is unsatisfiable.
  trace.jobs.push_back(job(0, "big", JobModel::ResNet, 12, QosClass::Bronze, 0.0));
  trace.jobs.push_back(job(1, "ok", JobModel::ResNet, 4, QosClass::Gold, 0.0));
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.deadlocks, 0u);
  EXPECT_NE(result.jobs[0].reject_reason.find("unsatisfiable"), std::string::npos);
}

// --- capacity dips (DESIGN.md §13, the serving-layer view of grow-back) -----

TEST(ServeScheduler, CapacityDipReservesOnlyFreeNodesAndNeverPreempts) {
  // Job A (2 of 4 nodes) is running when a 2-node dip starts: the dip takes
  // the two *free* nodes and A runs to completion untouched. Job B needs 3
  // nodes — more than ever free while the dip holds 2 — so it must wait for
  // the dip to end (the dip edge is a scheduler event even when the cluster
  // is idle), not deadlock.
  ServeConfig config = small_config();  // 16 ranks, 4 nodes
  config.breaker_enabled = false;
  const double dip_end = 1.0e7;
  config.dips.push_back(CapacityDip{1000.0, dip_end, 2});

  ArrivalTrace trace;
  trace.jobs.push_back(job(0, "steady", JobModel::MoE, 8, QosClass::Gold, 0.0, 4));
  trace.jobs.push_back(job(1, "late", JobModel::ResNet, 12, QosClass::Gold, 100000.0, 2));
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);

  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.deadlocks, 0u);
  EXPECT_EQ(result.jobs[0].state, JobState::Completed);
  EXPECT_LT(result.jobs[0].finish_us, dip_end) << "job A must run *through* the dip";
  EXPECT_GE(result.jobs[1].start_us, dip_end)
      << "job B fits only once the offline nodes return";
  EXPECT_EQ(scheduler.metrics().counter_value("serve_capacity_dips"), 1u);
  EXPECT_EQ(result.unshed_probes, 0u) << "no breaker was open at the dip's end";
}

TEST(ServeScheduler, DipEndUnshedsTenantsViaBreakerProbes) {
  // The hammer tenant trips its SLO breaker during a capacity dip (shed
  // arrivals), and the dip's end grants the open breaker a half-open probe:
  // capacity growing back is what un-sheds the tenant. probe_after_ops is
  // disabled so the dip-end probe is the *only* path out of Open.
  ServeConfig config = small_config();
  config.fabric_oversubscription = 4.0;
  config.slo_factor = 1.5;
  config.breaker = fault::BreakerConfig{2, 2, 0};
  const double dip_end = 1.5e6;
  config.dips.push_back(CapacityDip{0.0, dip_end, 1});

  ArrivalTrace trace;
  for (int i = 0; i < 40; ++i) {
    trace.jobs.push_back(
        job(static_cast<std::uint64_t>(i), "hammer", JobModel::MoE, 8, QosClass::Gold,
            50000.0 * i, 4));
  }
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);

  EXPECT_GT(result.shed, 0u) << "the dip-tightened cluster never tripped the breaker";
  EXPECT_GE(result.unshed_probes, 1u) << "the dip's end granted no probe";
  EXPECT_GE(scheduler.metrics().counter_value("serve_unshed_probes", {{"tenant", "hammer"}}),
            1u);
  // At least one post-dip arrival was admitted again (probe traffic).
  std::uint64_t post_dip_admitted = 0;
  for (const JobRecord& record : result.jobs) {
    if (record.spec.arrival_us <= dip_end) continue;
    if (record.reject_reason.rfind("shed:", 0) != 0) ++post_dip_admitted;
  }
  EXPECT_GE(post_dip_admitted, 1u) << "the tenant stayed shed after capacity grew back";
}

TEST(ServeScheduler, DipReplayIsDeterministic) {
  TraceConfig trace_config;
  trace_config.num_jobs = 60;
  trace_config.seed = 11;
  const ArrivalTrace trace = generate_trace(trace_config);

  ServeConfig config = small_config();
  config.dips.push_back(CapacityDip{200000.0, 900000.0, 2});
  ServeScheduler a(config);
  ServeScheduler b(config);
  const ServeResult ra = a.run(trace);
  const ServeResult rb = b.run(trace);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.unshed_probes, rb.unshed_probes);
  EXPECT_EQ(ra.p50_latency_us, rb.p50_latency_us);  // bit-identical, not approx
  EXPECT_EQ(ra.p99_latency_us, rb.p99_latency_us);
  EXPECT_EQ(ra.makespan_us, rb.makespan_us);
}

TEST(ServeScheduler, DipConfigIsValidated) {
  ServeConfig config = small_config();
  config.dips.push_back(CapacityDip{100.0, 100.0, 1});  // empty window
  EXPECT_THROW(ServeScheduler{config}, InvalidArgument);
  config.dips.back() = CapacityDip{0.0, 100.0, 4};  // the whole cluster
  EXPECT_THROW(ServeScheduler{config}, InvalidArgument);
  config.dips.back() = CapacityDip{0.0, 100.0, 0};
  EXPECT_THROW(ServeScheduler{config}, InvalidArgument);
}

// --- pinned replay -----------------------------------------------------------
//
// A 2,000-job replay with a chaos window, a capacity dip and the SLO breakers
// on, serialised with every double as a hex float and compared byte for byte
// against a checked-in golden: totals, percentiles, per-tenant stats, every
// job's state, placement and start/finish, and the metrics snapshot. Replay
// optimisations (caching, skipped rate recomputation) must leave it intact.
// To regenerate after an *intentional* behaviour change:
//   MCRDL_UPDATE_GOLDEN=1 ./build/tests/sched/sched_serve_test

std::string hex(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string dump_replay(const ServeResult& r, const std::string& metrics_json) {
  std::ostringstream out;
  out << "completed " << r.completed << "\nrejected " << r.rejected << "\nshed " << r.shed
      << "\ndeadlocks " << r.deadlocks << "\nunshed_probes " << r.unshed_probes
      << "\np50 " << hex(r.p50_latency_us) << "\np99 " << hex(r.p99_latency_us)
      << "\nmean " << hex(r.mean_latency_us) << "\nmakespan " << hex(r.makespan_us)
      << "\navg_utilization " << hex(r.avg_utilization) << "\npeak_contention "
      << hex(r.peak_contention) << "\n";
  for (const auto& [name, t] : r.tenants) {
    out << "tenant " << name << " " << qos_name(t.qos) << " " << t.completed << " "
        << t.rejected << " " << t.shed << " " << hex(t.p50_latency_us) << " "
        << hex(t.p99_latency_us) << " " << hex(t.mean_latency_us) << "\n";
  }
  // id state placement start finish
  for (const JobRecord& job : r.jobs) {
    out << job.spec.id << " " << job_state_name(job.state) << " " << job.placement.begin << "+"
        << job.placement.count << " " << hex(job.start_us) << " " << hex(job.finish_us)
        << "\n";
  }
  out << "metrics " << metrics_json << "\n";
  return out.str();
}

// Compares `actual` with the golden file `name`, or rewrites the file under
// MCRDL_UPDATE_GOLDEN.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(MCRDL_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MCRDL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected != actual) {
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    int line = 1;
    while (std::getline(ea, el) && std::getline(aa, al) && el == al) ++line;
    FAIL() << name << " diverges from the replay at line " << line << "\n  golden: " << el
           << "\n  actual: " << al;
  }
}

TEST(ServeScheduler, ReplayMatchesPinnedGolden) {
  TraceConfig trace_config;
  trace_config.num_jobs = 2000;
  trace_config.seed = 3;
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig config;  // 16 Lassen nodes, breakers on
  config.chaos.push_back(ChaosWindow{0.25 * horizon, 0.75 * horizon, 8.0});
  config.dips.push_back(CapacityDip{0.45 * horizon, 0.55 * horizon, 2});
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  ASSERT_GT(result.shed, 0u) << "the pinned replay must exercise the breakers";
  ASSERT_GT(result.unshed_probes, 0u) << "the pinned replay must exercise the dip's end";
  expect_golden("replay_2000.txt", dump_replay(result, scheduler.metrics().to_json()));
}

// Only 4-rank jobs, so every job sits on one node: the fabric split never
// runs and every rate is the one a job starts with, chaos window or not.
TEST(ServeScheduler, SingleNodeReplayMatchesPinnedGolden) {
  TraceConfig trace_config;
  trace_config.num_jobs = 1500;
  trace_config.seed = 21;
  trace_config.rank_choices = {4};
  trace_config.mean_interarrival_us = 6000.0;
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig config;
  config.chaos.push_back(ChaosWindow{0.3 * horizon, 0.6 * horizon, 8.0});
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  ASSERT_EQ(result.peak_contention, 1.0) << "a single-node job saw fabric contention";
  ASSERT_GT(result.completed, 0u);
  expect_golden("replay_single_node.txt", dump_replay(result, scheduler.metrics().to_json()));
}

// Only 8- and 16-rank jobs, so every job shares the fabric, under two
// overlapping chaos windows: every start, finish and chaos edge re-splits it.
TEST(ServeScheduler, MultiNodeChaosReplayMatchesPinnedGolden) {
  TraceConfig trace_config;
  trace_config.num_jobs = 1500;
  trace_config.seed = 22;
  trace_config.rank_choices = {8, 16};
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig config;
  config.fabric_oversubscription = 4.0;
  config.chaos.push_back(ChaosWindow{0.2 * horizon, 0.6 * horizon, 4.0});
  config.chaos.push_back(ChaosWindow{0.5 * horizon, 0.8 * horizon, 2.0});
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  ASSERT_GT(result.peak_contention, 4.0) << "the fabric split never stacked on chaos";
  expect_golden("replay_multi_node_chaos.txt",
                dump_replay(result, scheduler.metrics().to_json()));
}

// A saturated 16-rank cluster with short queues: quota rejects, full-queue
// rejects, two overlapping capacity dips and the SLO breakers all at once.
TEST(ServeScheduler, SaturatedReplayMatchesPinnedGolden) {
  TraceConfig trace_config;
  trace_config.num_jobs = 1500;
  trace_config.seed = 23;
  trace_config.mean_interarrival_us = 25000.0;
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig config = small_config();
  for (QosPolicy* policy :
       {&config.admission.gold, &config.admission.silver, &config.admission.bronze}) {
    policy->max_queued = 4;
  }
  config.dips.push_back(CapacityDip{0.2 * horizon, 0.5 * horizon, 1});
  config.dips.push_back(CapacityDip{0.4 * horizon, 0.7 * horizon, 2});
  ServeScheduler scheduler(config);
  const ServeResult result = scheduler.run(trace);
  std::uint64_t quota_rejects = 0, full_rejects = 0;
  for (const JobRecord& job : result.jobs) {
    if (job.reject_reason.rfind("unsatisfiable", 0) == 0) ++quota_rejects;
    if (job.reject_reason.find("queue full") != std::string::npos) ++full_rejects;
  }
  ASSERT_GT(quota_rejects, 0u);
  ASSERT_GT(full_rejects, 0u);
  ASSERT_GT(result.shed, 0u);
  ASSERT_EQ(scheduler.metrics().counter_value("serve_capacity_dips"), 2u);
  expect_golden("replay_saturated.txt", dump_replay(result, scheduler.metrics().to_json()));
}

// A scheduler carries nothing but its metrics from one replay into the
// next: its second run of a trace equals a fresh scheduler's first.
TEST(ServeScheduler, ReplaysOnOneSchedulerAreIndependent) {
  TraceConfig trace_config;
  trace_config.num_jobs = 2000;
  trace_config.seed = 3;
  const ArrivalTrace trace = generate_trace(trace_config);
  const double horizon = trace.jobs.back().arrival_us;

  ServeConfig config;
  config.chaos.push_back(ChaosWindow{0.6 * horizon, 4.0 * horizon, 16.0});
  ServeScheduler reused(config);
  const ServeResult first = reused.run(trace);
  ASSERT_GT(first.shed, 0u) << "the replay must leave breakers open at its end";
  const ServeResult second = reused.run(trace);
  ServeScheduler fresh(config);
  const ServeResult expected = fresh.run(trace);
  EXPECT_EQ(second.shed, expected.shed);
  EXPECT_EQ(dump_replay(second, ""), dump_replay(expected, ""));

  // A trace with other tenant names gets breaker slots of its own on the
  // reused scheduler, at ids a fresh scheduler does not use for them.
  trace_config.seed = 4;
  trace_config.num_tenants = 4;
  ArrivalTrace other = generate_trace(trace_config);
  for (JobSpec& spec : other.jobs) spec.tenant = "acct-" + spec.tenant;
  const ServeResult reused_other = reused.run(other);
  ServeScheduler fresh_other(config);
  const ServeResult expected_other = fresh_other.run(other);
  ASSERT_GT(expected_other.shed, 0u);
  EXPECT_EQ(reused_other.tenants.count("tenant-0"), 0u);
  EXPECT_EQ(dump_replay(reused_other, ""), dump_replay(expected_other, ""));
  for (const auto& [tenant, stats] : expected_other.tenants) {
    for (const char* to : {"open", "half_open", "closed"}) {
      const obs::Labels labels{{"tenant", tenant}, {"to", to}};
      EXPECT_EQ(reused.metrics().counter_value("serve_breaker_transitions", labels),
                fresh_other.metrics().counter_value("serve_breaker_transitions", labels))
          << tenant << " " << to;
    }
  }
}

TEST(RunServe, QuickReportIsSchemaShapedAndChaosDegrades) {
  bench::ServeExperimentOptions options;
  options.quick = true;
  const bench::ServeBenchReport report = bench::run_serve(options);

  EXPECT_EQ(report.bench.experiment, "serve");
  ASSERT_GE(report.bench.series.size(), 2u);
  for (const auto& series : report.bench.series) {
    ASSERT_EQ(series.points.size(), 3u) << series.name;
    // The percentile rank rides the bytes axis, strictly increasing.
    EXPECT_LT(series.points[0].bytes, series.points[1].bytes);
    EXPECT_LT(series.points[1].bytes, series.points[2].bytes);
    EXPECT_GT(series.points[0].virtual_us, 0.0);
    EXPECT_LE(series.points[0].virtual_us, series.points[2].virtual_us);
  }
  EXPECT_EQ(report.clean.deadlocks, 0u);
  EXPECT_EQ(report.chaos.deadlocks, 0u);
  EXPECT_GE(report.chaos.p99_latency_us, 1.5 * report.clean.p99_latency_us);
}

}  // namespace
}  // namespace mcrdl::sched
