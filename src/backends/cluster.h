// ClusterContext: one simulated HPC machine — the scheduler, the topology,
// and one Device per rank — plus the SPMD launcher that runs a per-rank
// program as one actor per rank.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/net/cost.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/sim/device.h"
#include "src/sim/scheduler.h"

namespace mcrdl {

class ClusterContext {
 public:
  // Everything simulated on a ClusterContext runs on the thread that calls
  // run_spmd(); separate contexts share no state and may run on separate
  // threads.
  explicit ClusterContext(net::SystemConfig config);

  sim::Scheduler& scheduler() { return sched_; }
  const net::Topology& topology() const { return topo_; }
  int world_size() const { return topo_.world_size(); }
  sim::Device* device(int rank);

  // Fault-injection decision engine for this cluster. Always present but
  // disabled (zero-cost on every hot path) until a FaultPlan is configured
  // — see src/fault/injector.h and McrDlOptions::fault.
  fault::FaultInjector& faults() { return faults_; }

  // Always-on metrics registry (src/obs/metrics.h). Every layer records
  // into it: the op pipeline (stage timings, op latencies), Comm::issue
  // (per-backend ops/bytes), the failover path (retries/reroutes/breaker
  // transitions) and the cost model (link usage, via link_usage()).
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Link-class traffic accumulator the backends' cost models feed; mirrored
  // into `link_*` gauges by metrics_json().
  net::LinkUsage& link_usage() { return usage_; }
  // Shared tenant-contention state every backend's cost model reads
  // (net::CostModel::set_contention). Identity by default, so a single-job
  // cluster is byte-identical to a build without the serving layer; the
  // multi-tenant scheduler (src/sched/) writes the QoS-weighted bandwidth
  // shares here before measuring a job under load.
  net::ContentionScale& contention() { return contention_; }
  // Syncs the link-utilization gauges from link_usage(), then returns the
  // registry's JSON snapshot.
  std::string metrics_json();

  // Runs fn(rank) as one actor per rank and blocks until all complete.
  // Rethrows the first actor error (including DeadlockError).
  void run_spmd(const std::function<void(int)>& fn);
  // As above but only for the first `ranks` ranks.
  void run_spmd(int ranks, const std::function<void(int)>& fn);

 private:
  sim::Scheduler sched_;
  net::Topology topo_;
  std::vector<std::unique_ptr<sim::Device>> devices_;
  fault::FaultInjector faults_{&sched_};
  obs::MetricsRegistry metrics_;
  net::LinkUsage usage_;
  net::ContentionScale contention_;
};

}  // namespace mcrdl
