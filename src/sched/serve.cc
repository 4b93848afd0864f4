#include "src/sched/serve.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string_view>

#include "src/sched/placement.h"

namespace mcrdl::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Slack for "this job's remaining work hit zero" after advancing by the
// exact predicted interval; steps are O(1..10) so 1e-7 is far below one
// step and far above double rounding.
constexpr double kStepEps = 1e-7;

// Weighted max-min (water-filling) split of `capacity` among demands into
// `alloc`. Iteratively freezes every flow whose demand fits inside its
// weighted share of the remaining capacity; the rest split what is left by
// weight. Deterministic: pure arithmetic over vector order. `frozen` is
// scratch; both outputs keep their capacity across calls.
void water_fill(const std::vector<double>& demand, const std::vector<double>& weight,
                double capacity, std::vector<double>& alloc, std::vector<bool>& frozen) {
  const std::size_t n = demand.size();
  double total = 0.0;
  for (double d : demand) total += d;
  if (total <= capacity) {  // nobody is constrained
    alloc = demand;
    return;
  }
  alloc.assign(n, 0.0);
  frozen.assign(n, false);
  double cap = capacity;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i] && demand[i] > 0.0) weight_sum += weight[i];
    }
    if (weight_sum <= 0.0) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i] || demand[i] <= 0.0) continue;
      const double share = cap * weight[i] / weight_sum;
      if (demand[i] <= share * (1.0 + 1e-12)) {
        alloc[i] = demand[i];
        frozen[i] = true;
        progressed = true;
      }
    }
    if (progressed) {
      cap = capacity;
      for (std::size_t i = 0; i < n; ++i) {
        if (frozen[i]) cap -= alloc[i];
      }
    }
  }
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!frozen[i] && demand[i] > 0.0) weight_sum += weight[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!frozen[i] && demand[i] > 0.0) alloc[i] = cap * weight[i] / weight_sum;
  }
}

obs::Labels tenant_labels(const JobSpec& spec) {
  return obs::Labels{{"tenant", spec.tenant}, {"qos", qos_name(spec.qos)}};
}

// Index of the nearest-rank q-th percentile in an ascending sample of `n`:
// the smallest value with at least q% of the sample at or below it.
std::size_t nearest_rank_index(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return rank == 0 ? 0 : rank - 1;
}

// Fills `stats`' p50/p99/mean from an unsorted latency sample, reordering it.
template <typename Stats>
void summarize_latencies(std::vector<double>& latencies, Stats& stats) {
  double sum = 0.0;
  for (double l : latencies) sum += l;  // in replay order, before the selection
  stats.mean_latency_us = sum / static_cast<double>(latencies.size());
  const LatencyQuantiles q = select_p50_p99(latencies);
  stats.p50_latency_us = q.p50;
  stats.p99_latency_us = q.p99;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  MCRDL_REQUIRE(!values.empty(), "percentile of an empty sample");
  MCRDL_REQUIRE(q > 0.0 && q <= 100.0, "percentile rank must be in (0, 100]");
  std::sort(values.begin(), values.end());
  return values[nearest_rank_index(values.size(), q)];
}

LatencyQuantiles select_p50_p99(std::vector<double>& values) {
  MCRDL_REQUIRE(!values.empty(), "percentile of an empty sample");
  // Select p99 first: everything before it is then the smaller part of the
  // sample, which holds the p50 order statistic as well.
  const auto p99 = values.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank_index(values.size(), 99.0));
  std::nth_element(values.begin(), p99, values.end());
  const auto p50 = values.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank_index(values.size(), 50.0));
  if (p50 != p99) std::nth_element(values.begin(), p50, p99);
  return LatencyQuantiles{*p50, *p99};
}

ServeScheduler::ServeScheduler(ServeConfig config)
    : config_(std::move(config)),
      cache_(config_.system, config_.plan, config_.quick_models),
      breaker_(config_.breaker) {
  MCRDL_REQUIRE(config_.fabric_oversubscription > 0.0,
                "fabric oversubscription must be positive");
  MCRDL_REQUIRE(config_.slo_factor >= 1.0, "an SLO below the service time is unmeetable");
  for (const ChaosWindow& window : config_.chaos) {
    MCRDL_REQUIRE(window.until_us > window.from_us, "empty chaos window");
    MCRDL_REQUIRE(window.inter_degrade >= 1.0, "chaos cannot speed the fabric up");
  }
  for (const CapacityDip& dip : config_.dips) {
    MCRDL_REQUIRE(dip.until_us > dip.from_us, "empty capacity dip");
    MCRDL_REQUIRE(dip.nodes_offline >= 1, "capacity dip needs at least one node offline");
    MCRDL_REQUIRE(dip.nodes_offline < config_.system.num_nodes,
                  "capacity dip cannot take the whole cluster offline");
  }
  breaker_.set_transition_hook([this](fault::BreakerSlotId slot, const std::string& tenant,
                                      int /*rank*/, fault::BreakerState to) {
    if (slot >= transition_counters_.size()) transition_counters_.resize(slot + 1);
    obs::Counter*& counter = transition_counters_[slot][static_cast<std::size_t>(to)];
    if (counter == nullptr) {
      counter = &metrics_.counter("serve_breaker_transitions",
                                  {{"tenant", tenant}, {"to", fault::breaker_state_name(to)}});
    }
    counter->inc();
  });
}

double ServeScheduler::chaos_factor_at(SimTime t) const {
  double factor = 1.0;
  for (const ChaosWindow& window : config_.chaos) {
    if (t >= window.from_us && t < window.until_us) factor *= window.inter_degrade;
  }
  return factor;
}

SimTime ServeScheduler::next_chaos_edge(SimTime t) const {
  SimTime next = kInf;
  for (const ChaosWindow& window : config_.chaos) {
    if (window.from_us > t) next = std::min(next, window.from_us);
    if (window.until_us > t) next = std::min(next, window.until_us);
  }
  return next;
}

SimTime ServeScheduler::next_dip_edge(SimTime t) const {
  SimTime next = kInf;
  for (const CapacityDip& dip : config_.dips) {
    if (dip.from_us > t) next = std::min(next, dip.from_us);
    if (dip.until_us > t) next = std::min(next, dip.until_us);
  }
  return next;
}

void ServeScheduler::recompute_rates(std::vector<Active>& active,
                                     const std::vector<JobRecord>& jobs, double chaos,
                                     double* peak_contention) {
  // Only multi-node jobs share the fabric. Leaving the single-node ones out
  // of the water-fill changes nothing: their zero demand adds nothing to its
  // sums, and their weight only counts where demand is positive.
  demand_.clear();
  weight_.clear();
  for (const Active& a : active) {
    if (!a.multi_node) continue;
    demand_.push_back(a.demand);
    weight_.push_back(a.weight);
  }
  if (demand_.empty()) return;

  // The tapered core sustains only 1/oversubscription of aggregate
  // injection; QoS-weighted max-min fairness splits it under overload.
  const double capacity = 1.0 / config_.fabric_oversubscription;
  water_fill(demand_, weight_, capacity, alloc_, frozen_);

  std::size_t i = 0;
  for (Active& a : active) {
    if (!a.multi_node) continue;
    const double share = demand_[i] > 0.0 && alloc_[i] > 0.0 ? demand_[i] / alloc_[i] : 1.0;
    ++i;
    const JobSpec& spec = jobs[a.job].spec;
    a.factor = JobCostCache::quantize_contention(std::max(1.0, share) * chaos);
    a.rate = 1.0 / cache_.profile(spec.model, spec.ranks, a.factor).step_time_us;
    *peak_contention = std::max(*peak_contention, a.factor);
  }
}

ServeResult ServeScheduler::run(const ArrivalTrace& trace) {
  const int world = config_.system.world_size();
  const int gpn = config_.system.gpus_per_node;
  breaker_.reset();
  ServeResult result;
  std::vector<JobRecord>& jobs = result.jobs;
  jobs.reserve(trace.jobs.size());
  for (const JobSpec& spec : trace.jobs) {
    spec.validate();
    MCRDL_REQUIRE(spec.ranks <= world, "job " + std::to_string(spec.id) +
                                           " wants more ranks than the shared world has");
    JobRecord record;
    record.spec = spec;
    jobs.push_back(std::move(record));
  }
  const auto replay_order = [](const JobRecord& a, const JobRecord& b) {
    if (a.spec.arrival_us != b.spec.arrival_us) return a.spec.arrival_us < b.spec.arrival_us;
    return a.spec.id < b.spec.id;
  };
  // Generated and parsed traces usually arrive in replay order already.
  if (!std::is_sorted(jobs.begin(), jobs.end(), replay_order)) {
    std::stable_sort(jobs.begin(), jobs.end(), replay_order);
  }

  // Dense tenant ids in name order, with no node allocation per job: each
  // job first takes its tenant's first-seen id, remapped to the name order
  // once every name is known. The dip-end un-shed probe sweep walks tenants
  // in this order, and the breaker slots, instruments and roll-up index by
  // id, so no per-job step touches a tenant string again.
  std::map<std::string_view, std::size_t> first_seen;
  std::vector<std::size_t> tenant_of(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tenant_of[i] = first_seen.try_emplace(jobs[i].spec.tenant, first_seen.size()).first->second;
  }
  std::vector<std::string> tenants;
  std::vector<std::size_t> name_order(first_seen.size());
  tenants.reserve(first_seen.size());
  for (const auto& [name, seen] : first_seen) {
    name_order[seen] = tenants.size();
    tenants.emplace_back(name);
  }
  // Each tenant's roll-up carries the QoS of its first job in replay order.
  std::vector<TenantStats> stats(tenants.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t id = name_order[tenant_of[i]];
    tenant_of[i] = id;
    if (stats[id].tenant.empty()) {
      stats[id].tenant = tenants[id];
      stats[id].qos = jobs[i].spec.qos;
    }
  }
  std::vector<fault::BreakerSlotId> breaker_slot(tenants.size());
  for (std::size_t id = 0; id < tenants.size(); ++id) {
    breaker_slot[id] = breaker_.slot(tenants[id], 0);
  }

  // Per-(tenant, qos) instruments, resolved on first use so the registry
  // holds exactly the instruments the replay records into.
  struct TenantInstruments {
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Histogram* latency = nullptr;
  };
  std::vector<TenantInstruments> instruments(tenants.size() * kNumQosClasses);
  const auto instruments_of = [&](std::size_t index) -> TenantInstruments& {
    return instruments[tenant_of[index] * kNumQosClasses +
                       static_cast<std::size_t>(jobs[index].spec.qos)];
  };
  const auto tenant_counter = [&](obs::Counter*& slot, const char* name,
                                  std::size_t index) -> obs::Counter& {
    if (slot == nullptr) slot = &metrics_.counter(name, tenant_labels(jobs[index].spec));
    return *slot;
  };

  AdmissionController admission(world, config_.admission);
  RankAllocator allocator(world, config_.system.gpus_per_node);
  std::vector<Active> active;
  std::vector<std::size_t> done;
  SimTime now = 0.0;
  double busy_rank_us = 0.0;
  std::size_t next_arrival = 0;
  // Multi-node rates hold until the multi-node set changes or the chaos
  // factor moves. No factor is 0, so the first event computes them.
  bool fabric_changed = false;
  double rates_chaos = 0.0;
  // Set when a finish or a dip end frees ranks or quota: only then can a
  // queued head have become runnable.
  bool capacity_freed = false;

  const std::function<bool(const JobSpec&)> fits = [&allocator](const JobSpec& spec) {
    return allocator.fits(spec.ranks);
  };

  // Capacity dips hold allocator ranges while active.
  struct DipState {
    bool active = false;
    std::vector<RankRange> reserved;
  };
  std::vector<DipState> dips(config_.dips.size());

  const auto process_dip_edges = [&] {
    for (std::size_t i = 0; i < dips.size(); ++i) {
      const CapacityDip& dip = config_.dips[i];
      DipState& state = dips[i];
      if (state.active && now >= dip.until_us) {
        // Grow-back: the nodes return. Release the held ranges, then offer
        // every open tenant breaker a half-open probe so tenants shed
        // during the outage see traffic again now that capacity exists.
        for (const RankRange& range : state.reserved) allocator.release(range);
        state.reserved.clear();
        state.active = false;
        capacity_freed = true;
        if (config_.breaker_enabled) {
          for (std::size_t id = 0; id < tenants.size(); ++id) {
            if (breaker_.allow_probe(breaker_slot[id])) {
              ++result.unshed_probes;
              metrics_.counter("serve_unshed_probes", {{"tenant", tenants[id]}}).inc();
            }
          }
        }
      }
      if (!state.active && now >= dip.from_us && now < dip.until_us) {
        // Nodes go offline: reserve whole free nodes, never preempting a
        // running job. A busy cluster loses fewer nodes than requested.
        for (int n = 0; n < dip.nodes_offline; ++n) {
          const std::optional<RankRange> held = allocator.allocate(gpn);
          if (!held.has_value()) break;
          state.reserved.push_back(*held);
        }
        state.active = true;
        metrics_.counter("serve_capacity_dips").inc();
      }
    }
  };

  const auto start_job = [&](std::size_t index) {
    JobRecord& job = jobs[index];
    const JobSpec& spec = job.spec;
    const std::optional<RankRange> placement = allocator.allocate(spec.ranks);
    MCRDL_CHECK(placement.has_value()) << "started a job with no free range";
    admission.note_started(spec);
    job.state = JobState::Running;
    job.placement = *placement;
    job.start_us = now;
    // Fabric demand: a multi-node job asks for its slice's share of the
    // full-bisection fabric, scaled by how much of a step it keeps its links
    // busy when running alone; recompute_rates sets its rate. A single-node
    // job lives on NVLink, places no demand on the shared core and runs at
    // its uncontended rate throughout.
    const bool multi_node = placement->begin / gpn != (placement->end() - 1) / gpn;
    const JobProfile& alone = cache_.profile(spec.model, spec.ranks, 1.0);
    Active a{index, static_cast<double>(spec.steps), 0.0, 1.0, multi_node, 0.0,
             qos_weight(spec.qos) * spec.ranks};
    if (multi_node) {
      a.demand = (static_cast<double>(spec.ranks) / world) * alone.comm_fraction();
      fabric_changed = true;
    } else {
      a.rate = 1.0 / alone.step_time_us;
    }
    active.push_back(a);
  };

  // Queued jobs start while a head fits; the sweep is skipped outright
  // while every queue is empty.
  const auto start_runnable = [&] {
    while (admission.total_queued() > 0) {
      const std::optional<std::size_t> index = admission.pop_runnable(fits);
      if (!index.has_value()) break;
      start_job(*index);
    }
  };

  const auto finish_job = [&](std::size_t index) {
    JobRecord& job = jobs[index];
    job.state = JobState::Completed;
    job.finish_us = now;
    allocator.release(job.placement);
    admission.note_finished(job.spec);
    capacity_freed = true;
    ++result.completed;
    TenantInstruments& instrument = instruments_of(index);
    tenant_counter(instrument.completed, "serve_jobs_completed", index).inc();
    if (instrument.latency == nullptr) {
      instrument.latency = &metrics_.histogram("serve_job_latency_us", tenant_labels(job.spec));
    }
    instrument.latency->observe(job.latency_us());
    if (config_.breaker_enabled) {
      // SLO: a job may take slo_factor x its uncontended service time
      // (queueing included) before the tenant counts it as failed.
      const JobProfile& alone = cache_.profile(job.spec.model, job.spec.ranks, 1.0);
      const double slo = config_.slo_factor * alone.step_time_us * job.spec.steps;
      if (job.latency_us() > slo) {
        breaker_.record_failure(breaker_slot[tenant_of[index]]);
      } else {
        breaker_.record_success(breaker_slot[tenant_of[index]]);
      }
    }
  };

  const auto reject_job = [&](std::size_t index, std::string reason) {
    JobRecord& job = jobs[index];
    job.state = JobState::Rejected;
    job.reject_reason = std::move(reason);
    ++result.rejected;
    ++stats[tenant_of[index]].rejected;
    tenant_counter(instruments_of(index).rejected, "serve_jobs_rejected", index).inc();
  };

  process_dip_edges();  // a dip starting at t=0 holds its nodes from the start

  while (true) {
    // Next event: an arrival, the earliest completion, a capacity-dip
    // edge, or a chaos edge (which only matters while something is
    // running — rates are recomputed at start time anyway).
    const SimTime t_arrival =
        next_arrival < jobs.size() ? jobs[next_arrival].spec.arrival_us : kInf;
    SimTime t_complete = kInf;
    for (const Active& a : active) {
      if (a.rate > 0.0) t_complete = std::min(t_complete, now + a.remaining_steps / a.rate);
    }
    const SimTime t_chaos = active.empty() ? kInf : next_chaos_edge(now);
    // Dip edges count even while nothing runs: a queued job may be waiting
    // for nothing but the dip's end, and skipping the edge would wedge it.
    const SimTime t_dip = next_dip_edge(now);
    SimTime t = std::min(std::min(t_arrival, t_dip), std::min(t_complete, t_chaos));

    if (t == kInf) {
      if (admission.total_queued() == 0) break;  // replay finished
      // No arrival, nothing running, yet jobs wait: the queue is wedged.
      // arrive() rejects unsatisfiable jobs up front, so this is the
      // deadlock the acceptance criteria count — fail the stragglers
      // loudly rather than spinning forever.
      MCRDL_CHECK(!admission.head_satisfiable_when_idle())
          << "queued head claims to be satisfiable on an idle cluster";
      for (std::size_t index : admission.drain()) {
        reject_job(index, "admission deadlock: queue wedged on an idle cluster");
        ++result.deadlocks;
        metrics_.counter("serve_deadlocks").inc();
      }
      break;
    }
    t = std::max(t, now);

    // Advance every running job through [now, t) at its current rate.
    int running_ranks = 0;
    for (Active& a : active) {
      a.remaining_steps -= a.rate * (t - now);
      running_ranks += jobs[a.job].spec.ranks;
    }
    busy_rank_us += static_cast<double>(running_ranks) * (t - now);
    now = t;

    // Completions first — they free ranks and quota for everything below.
    // Ascending job order keeps tie-breaks deterministic.
    done.clear();
    for (const Active& a : active) {
      if (a.remaining_steps > kStepEps) continue;
      done.push_back(a.job);
      if (a.multi_node) fabric_changed = true;
    }
    if (!done.empty()) {
      std::sort(done.begin(), done.end());
      active.erase(std::remove_if(active.begin(), active.end(),
                                  [](const Active& a) { return a.remaining_steps <= kStepEps; }),
                   active.end());
      for (std::size_t index : done) finish_job(index);
    }

    // Dip edges after completions (an ending dip frees capacity for the
    // pop_runnable sweep below; a starting one reserves just-freed nodes).
    process_dip_edges();

    // Queued jobs outrank same-instant arrivals for the freed capacity.
    // Without a finish or a dip end nothing was freed since the last sweep
    // left every head blocked: admits and dip starts only take capacity, and
    // arrive() queues a job only when it cannot run right now. So no sweep
    // after the arrivals either.
    if (capacity_freed) {
      start_runnable();
      capacity_freed = false;
    }

    while (next_arrival < jobs.size() && jobs[next_arrival].spec.arrival_us <= now) {
      const std::size_t index = next_arrival++;
      const JobSpec& spec = jobs[index].spec;
      const fault::BreakerSlotId slot = breaker_slot[tenant_of[index]];
      if (config_.breaker_enabled && !breaker_.healthy(slot)) {
        // The tenant's breaker is open: shed the arrival instead of letting
        // a struggling tenant stack more load onto a degraded cluster. The
        // skip count is what eventually half-opens the breaker for a probe.
        breaker_.note_skipped(slot);
        jobs[index].state = JobState::Rejected;
        jobs[index].reject_reason = "shed: tenant breaker open";
        ++result.shed;
        ++stats[tenant_of[index]].shed;
        tenant_counter(instruments_of(index).shed, "serve_jobs_shed", index).inc();
        continue;
      }
      std::string reason;
      switch (admission.arrive(index, spec, fits, &reason)) {
        case AdmissionController::Verdict::Admit:
          start_job(index);
          break;
        case AdmissionController::Verdict::Queue:
          break;  // stays JobState::Queued
        case AdmissionController::Verdict::Reject:
          reject_job(index, reason);
          break;
      }
    }

    const double chaos = chaos_factor_at(now);
    if (fabric_changed || chaos != rates_chaos) {
      recompute_rates(active, jobs, chaos, &result.peak_contention);
      fabric_changed = false;
      rates_chaos = chaos;
    }
  }

  // Roll up latency statistics per tenant and in aggregate.
  result.makespan_us = now;
  result.avg_utilization =
      now > 0.0 ? busy_rank_us / (static_cast<double>(world) * now) : 0.0;
  metrics_.gauge("serve_avg_utilization").set(result.avg_utilization);

  std::vector<std::vector<double>> tenant_latencies(tenants.size());
  std::vector<double> all_latencies;
  all_latencies.reserve(result.completed);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& job = jobs[i];
    switch (job.state) {
      case JobState::Completed:
        ++stats[tenant_of[i]].completed;
        tenant_latencies[tenant_of[i]].push_back(job.latency_us());
        all_latencies.push_back(job.latency_us());
        break;
      case JobState::Rejected:
        break;  // counted as shed or rejected where it happened
      case JobState::Queued:
      case JobState::Running:
        MCRDL_CHECK(false) << "job " << job.spec.id << " left " << job_state_name(job.state)
                           << " at end of replay";
        break;
    }
  }
  for (std::size_t id = 0; id < tenants.size(); ++id) {
    if (!tenant_latencies[id].empty()) summarize_latencies(tenant_latencies[id], stats[id]);
    result.tenants.emplace(tenants[id], std::move(stats[id]));
  }
  if (!all_latencies.empty()) summarize_latencies(all_latencies, result);
  return result;
}

}  // namespace mcrdl::sched
