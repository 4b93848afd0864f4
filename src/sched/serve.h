// The multi-tenant serving scheduler (DESIGN.md §10).
//
// ServeScheduler replays an ArrivalTrace of jobs onto one shared cluster:
//
//   * admission — per-QoS rank quotas + bounded wait queues
//     (src/sched/admission.h); unsatisfiable jobs are rejected up front so
//     the queues cannot deadlock.
//   * placement — disjoint contiguous, node-aligned rank ranges from
//     RankAllocator (src/sched/placement.h); per-tenant process groups lay
//     out inside the slice exactly like a dedicated world.
//   * contention — concurrent multi-node jobs share the inter-node fabric.
//     Each job's demand is its slice's share of the fabric scaled by its
//     measured comm fraction; when total demand exceeds the fabric capacity
//     (nodes / oversubscription), bandwidth is split by weighted max-min
//     fairness with QoS weights, and each job's dilation factor feeds
//     net::ContentionScale through the JobCostCache so the slowdown comes
//     out of the real cost models, not an ad-hoc multiplier.
//   * chaos — windows that degrade the shared fabric (a flaky spine, a
//     paused switch) multiply every multi-node job's contention factor,
//     driving the tail-latency experiments.
//   * per-tenant health — a fault::CircuitBreaker per tenant: jobs that
//     blow their SLO (sojourn > slo_factor x uncontended service time)
//     count as failures; an open breaker sheds that tenant's new arrivals
//     until a half-open probe completes in time, throttling tenants whose
//     traffic the degraded cluster can no longer serve.
//
// The replay is an event-driven simulation in virtual time (arrivals,
// completions, chaos-window edges) and is fully deterministic: the same
// trace and config produce bit-identical JobRecords and percentiles.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fault/policy.h"
#include "src/obs/metrics.h"
#include "src/sched/admission.h"
#include "src/sched/arrival.h"
#include "src/sched/cost_cache.h"

namespace mcrdl::sched {

// One fabric-degradation window of the chaos plan.
struct ChaosWindow {
  SimTime from_us = 0.0;
  SimTime until_us = 0.0;
  double inter_degrade = 4.0;  // extra divisor on inter-node bandwidth
};

// One capacity dip: `nodes_offline` nodes leave the shared cluster during
// [from_us, until_us) — the serving-layer view of rank loss followed by
// elastic grow-back. The dip reserves only ranges that are *free* at its
// start (running jobs are never preempted; a fully busy cluster simply
// loses fewer nodes than requested), and at the end the ranks return and
// every tenant whose SLO breaker is open gets a half-open probe, so
// tenants shed during the outage are un-shed when capacity grows back.
struct CapacityDip {
  SimTime from_us = 0.0;
  SimTime until_us = 0.0;
  int nodes_offline = 1;
};

struct ServeConfig {
  net::SystemConfig system = net::SystemConfig::lassen(16);  // 64 shared ranks
  AdmissionConfig admission;
  // Comm routing for every job: "mixed", "tuned", or a backend name.
  std::string plan = "mixed";
  bool quick_models = true;  // trimmed model configs in the cost cache
  // Fat-tree taper: the core sustains nodes/oversubscription worth of
  // concurrent per-node injection. 1.0 models a full-bisection fabric
  // (contention only when demand genuinely overlaps); > 1 makes aggregate
  // multi-job traffic contend the way Eidola observes on real clusters.
  double fabric_oversubscription = 2.0;
  std::vector<ChaosWindow> chaos;
  // Capacity dips (nodes offline, then grown back). Empty by default, so
  // existing replays are bit-identical.
  std::vector<CapacityDip> dips;
  // Per-tenant SLO breaker; shedding is disabled when breaker_enabled is
  // false (every arrival reaches admission).
  bool breaker_enabled = true;
  double slo_factor = 8.0;  // SLO = slo_factor x uncontended service time
  fault::BreakerConfig breaker{3, 2, 4};
};

struct TenantStats {
  std::string tenant;
  QosClass qos = QosClass::Silver;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  // admission rejects (quota/queue/deadlock)
  std::uint64_t shed = 0;      // dropped by the tenant's open breaker
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double mean_latency_us = 0.0;
};

struct ServeResult {
  std::vector<JobRecord> jobs;  // in replay (arrival, id) order
  std::map<std::string, TenantStats> tenants;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadlocks = 0;  // queued jobs no completion could unblock
  std::uint64_t unshed_probes = 0;  // breaker probes granted when capacity grew back
  double p50_latency_us = 0.0;  // aggregate over completed jobs
  double p99_latency_us = 0.0;
  double mean_latency_us = 0.0;
  double makespan_us = 0.0;
  double avg_utilization = 0.0;   // mean fraction of world ranks occupied
  double peak_contention = 1.0;   // largest quantised dilation any job saw
};

// Nearest-rank percentile (q in (0, 100]) of an unsorted sample; throws
// InvalidArgument on an empty sample.
double percentile(std::vector<double> values, double q);

// percentile(values, 50) and percentile(values, 99) by selection instead of
// a sort; reorders `values`. Throws InvalidArgument on an empty sample.
struct LatencyQuantiles {
  double p50 = 0.0;
  double p99 = 0.0;
};
LatencyQuantiles select_p50_p99(std::vector<double>& values);

class ServeScheduler {
 public:
  explicit ServeScheduler(ServeConfig config);

  // Replays the trace to completion. Reusable: each run starts from an
  // empty cluster and closed breakers, so a replay does not depend on the
  // ones before it (metrics accumulate across runs).
  ServeResult run(const ArrivalTrace& trace);

  // Per-tenant counters/latency histograms, labelled {tenant, qos}.
  obs::MetricsRegistry& metrics() { return metrics_; }
  fault::CircuitBreaker& breaker() { return breaker_; }
  JobCostCache& cost_cache() { return cache_; }
  const ServeConfig& config() const { return config_; }

 private:
  struct Active {
    std::size_t job;         // index into the run's JobRecord vector
    double remaining_steps;  // fractional steps outstanding
    double rate;             // steps per virtual µs at the current factor
    double factor;           // quantised contention dilation in effect
    // Fixed at start by the spec and the placement.
    bool multi_node;         // the slice spans nodes, so it shares the fabric
    double demand;           // fabric share asked for when alone (multi-node)
    double weight;           // QoS weight x ranks, for the fair split
  };

  double chaos_factor_at(SimTime t) const;
  SimTime next_chaos_edge(SimTime t) const;
  // Earliest dip start/end strictly after `t`. Unlike chaos edges this is
  // part of the event-time minimum even while nothing runs: a dip end is
  // what un-wedges a queue waiting for capacity to grow back.
  SimTime next_dip_edge(SimTime t) const;
  // Recomputes every multi-node job's contention factor and step rate under
  // the chaos slowdown `chaos`; single-node jobs keep the rate they started
  // with. run() calls it only when a multi-node job started or finished or
  // the chaos factor changed; otherwise every rate would come out the same.
  void recompute_rates(std::vector<Active>& active, const std::vector<JobRecord>& jobs,
                       double chaos, double* peak_contention);

  ServeConfig config_;
  JobCostCache cache_;
  obs::MetricsRegistry metrics_;
  fault::CircuitBreaker breaker_;
  // serve_breaker_transitions{tenant, to} per (breaker slot, state), resolved
  // on the first such transition. Slots outlive replays, and so do these.
  std::vector<std::array<obs::Counter*, fault::kNumBreakerStates>> transition_counters_;
  // recompute_rates' per-job working set, kept so an update allocates nothing.
  std::vector<double> demand_, weight_, alloc_;
  std::vector<bool> frozen_;
};

}  // namespace mcrdl::sched
