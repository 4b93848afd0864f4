// Analytic collective-communication cost models.
//
// Every backend is characterised by a BackendProfile (latencies, achieved
// bandwidth fractions per operation, and the set of algorithm templates its
// implementation uses). CostModel evaluates the classical α/β cost of each
// applicable algorithm over a two-level (intra-node NVLink / inter-node IB)
// topology and returns the cheapest — mirroring how real libraries select
// algorithms by message size and scale. All the paper's performance
// crossovers (NCCL wins large Allreduce, MVAPICH2-GDR wins small messages
// and Alltoall at scale, SCCL wins large All_gather) emerge from these
// models; `tests/net/calibration_test.cc` pins the orderings.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/net/comm_types.h"
#include "src/net/topology.h"

namespace mcrdl::net {

// Shape of a communicator over the block rank layout.
struct CommShape {
  int world = 1;  // ranks in the communicator
  int nodes = 1;  // nodes spanned
  int ppn = 1;    // ranks per node

  // Shape of a communicator covering ranks [0, world_used) of `topo`.
  static CommShape over(const Topology& topo, int world_used);
  static CommShape over(const Topology& topo) { return over(topo, topo.world_size()); }
  // Shape of a communicator over an explicit — possibly non-contiguous —
  // rank list: nodes actually spanned, and the maximum ranks-per-node over
  // the real per-node occupancy. This is what makes subgroup costing exact:
  // an intra-node group costs as nodes=1 (NVLink β), a one-leader-per-node
  // group costs as ppn=1 (each leader gets the full NIC share).
  static CommShape of(const Topology& topo, const std::vector<int>& ranks);
};

// Algorithm templates a backend implementation may employ.
enum class Algo {
  Ring,               // bandwidth-optimal rings (NCCL's workhorse)
  DoubleBinaryTree,   // NCCL's latency tree for allreduce/broadcast
  RecursiveDoubling,  // MPI latency-optimal power-of-two exchanges
  BinomialTree,       // rooted MPI collectives
  Bruck,              // small-message alltoall
  PairwiseExchange,   // large-message alltoall, one peer per round
  ScatteredExchange,  // GDR-style alltoall with intra/inter overlap
  TwoLevel,           // hierarchical node-leader algorithms
};

// Performance personality of one communication backend.
struct BackendProfile {
  std::string name;          // registry key, e.g. "mv2-gdr"
  std::string display_name;  // e.g. "MVAPICH2-GDR"

  double launch_overhead_us = 0.0;  // fixed critical-path cost per operation
  double step_latency_us = 0.0;     // software α added to every algorithm step
  double p2p_latency_us = 0.0;      // extra latency per point-to-point message
  double reduction_gbps = 0.0;      // on-GPU reduction arithmetic bandwidth

  std::size_t eager_threshold = 0;     // p2p messages <= this skip rendezvous
  double rendezvous_overhead_us = 0.0; // extra RTT-ish cost for large p2p

  // Fraction of the hardware link latency visible per ring hop; kernel-level
  // chunk pipelining (NCCL) hides most of it, host-driven MPI rings do not.
  double ring_pipeline_factor = 1.0;

  // Whether the library's two-level schedules overlap intra-node and
  // inter-node traffic (synthesized MSCCL/SCCL schedules do; classic MPI
  // hierarchical collectives run the phases back to back).
  bool overlapped_two_level = false;

  // Fraction of NVLink bandwidth the library reaches inside a node, applied
  // on top of the per-op efficiency. Kernel-based libraries (NCCL/SCCL)
  // drive NVLink directly; host-mediated MPI over CUDA IPC reaches far less.
  double intra_bw_scale = 1.0;

  bool stream_aware = false;             // synchronises via CUDA streams
  bool native_vector_collectives = false;
  bool supports_all_ops = true;          // full MPI operation coverage

  std::set<Algo> algorithms;
  // Operations the library implements natively; ops absent from a non-empty
  // set must be emulated by MCR-DL's emulation layer (paper Section V-B).
  std::set<OpType> native_ops;
  std::map<OpType, double> bw_eff;  // achieved fraction of link bandwidth per op
  double default_bw_eff = 0.8;

  double bw_efficiency(OpType op) const;
  bool is_native(OpType op) const { return native_ops.empty() || native_ops.count(op) > 0; }
};

// Ready-made profiles for the four backends the paper evaluates.
BackendProfile nccl_profile();
BackendProfile mv2_gdr_profile();
BackendProfile ompi_profile();
BackendProfile sccl_profile();
// Extensibility demo (paper Section V-B): a host-side Gloo-style backend
// added purely by defining a profile — not part of the paper's evaluation.
BackendProfile gloo_profile();
// All of the above, in the paper's order.
std::vector<BackendProfile> all_backend_profiles();

// β multipliers injected by the fault subsystem: >1 slows the matching link
// class down (link degradation shows up as longer virtual-time transfers).
struct FaultBetaScale {
  double intra = 1.0;
  double inter = 1.0;
};
// Queried per cost evaluation; returns the multipliers active *now* for the
// backend this model belongs to (src/fault/injector.h).
using FaultScaleFn = std::function<FaultBetaScale(OpType)>;

// Bandwidth-sharing state from concurrent tenants (src/sched/): when several
// jobs' transfers occupy the same link class, each job sees only its share of
// the bandwidth. A factor of k divides the link class's achievable β by k —
// the serving scheduler sets it to the job's QoS-weighted oversubscription
// before evaluating that job's costs. Distinct from FaultBetaScale: faults
// model broken hardware, contention models healthy hardware that is merely
// shared. At the identity (the default) every cost is bit-identical to a
// model without the hook, which is what keeps single-job golden traces
// byte-stable.
struct ContentionScale {
  double intra = 1.0;  // NVLink sharing within a node
  double inter = 1.0;  // NIC / fabric sharing across nodes

  bool is_identity() const { return intra == 1.0 && inter == 1.0; }
};

// Aggregate traffic per link class, accumulated by every CostModel the
// owning cluster hands out (see CostModel::set_usage). A plain struct so
// src/net stays free of the obs layer; ClusterContext mirrors it into
// link-utilization gauges at snapshot time. `ops` counts cost-model
// evaluations (one per collective rendezvous or p2p transfer), `busy_us`
// the virtual time those transfers occupied the link class.
struct LinkUsage {
  struct ClassUsage {
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    double busy_us = 0.0;
  };

  void record_intra(std::uint64_t bytes, double busy_us) { record(intra_, bytes, busy_us); }
  void record_inter(std::uint64_t bytes, double busy_us) { record(inter_, bytes, busy_us); }

  const ClassUsage& intra() const { return intra_; }
  const ClassUsage& inter() const { return inter_; }

 private:
  static void record(ClassUsage& u, std::uint64_t bytes, double busy_us) {
    ++u.ops;
    u.bytes += bytes;
    u.busy_us += busy_us;
  }

  ClassUsage intra_;  // NVLink traffic within a node
  ClassUsage inter_;  // NIC traffic crossing nodes
};

// Evaluates operation costs for one backend over one topology.
class CostModel {
 public:
  CostModel(const Topology* topo, BackendProfile profile);

  // Virtual-time cost of a collective. `bytes` follows the PyTorch
  // convention: the per-rank input payload for allreduce/allgather/
  // reduce_scatter/bcast/gather/scatter, and the *total local buffer* for
  // the alltoall family.
  SimTime collective_cost(OpType op, std::size_t bytes, const CommShape& shape) const;

  // Virtual-time cost of one point-to-point message between two ranks.
  SimTime p2p_cost(std::size_t bytes, int src, int dst) const;

  const BackendProfile& profile() const { return profile_; }
  const Topology& topology() const { return *topo_; }

  // Installs (or clears, with nullptr) the fault-injection β hook. Unset —
  // the default — the cost formulas are untouched, keeping fault-free runs
  // bit-identical to a build without the fault subsystem.
  void set_fault_scale(FaultScaleFn fn) { fault_scale_ = std::move(fn); }

  // Installs the link-usage accumulator (cluster-owned; must outlive the
  // model). Purely observational: recording never changes the returned
  // costs, so attaching it cannot move a virtual-time stamp.
  void set_usage(LinkUsage* usage) { usage_ = usage; }

  // Installs (or clears, with nullptr) the shared tenant-contention state
  // (cluster-owned; must outlive the model). Read per evaluation, so the
  // scheduler can re-weight bandwidth shares between operations without
  // touching the models. Identity state leaves every cost bit-identical.
  void set_contention(const ContentionScale* contention) { contention_ = contention; }

 private:
  // Derived per-shape link terms (bytes/µs and µs).
  struct Terms {
    double alpha_intra;    // per-step latency, intra-node
    double alpha_inter;    // per-step latency, inter-node
    double alpha_mixed;    // ppn-weighted average step latency
    double beta_intra;     // bytes/µs over NVLink (efficiency applied)
    double beta_inter_gpu; // bytes/µs per GPU over the NIC, all ppn active
    double beta_mixed;     // harmonic step mix for ring laps
    double red_bw;         // bytes/µs of reduction arithmetic
    double fault_inter = 1.0;  // active fault β multiplier, inter-node links
  };
  Terms terms_for(const CommShape& shape, OpType op) const;

  bool has(Algo a) const { return profile_.algorithms.count(a) > 0; }

  SimTime allreduce_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime allgather_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime reduce_scatter_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime broadcast_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime reduce_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime gather_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime alltoall_cost(std::size_t bytes, const CommShape& s, const Terms& t) const;
  SimTime barrier_cost(const CommShape& s, const Terms& t) const;

  const Topology* topo_;
  BackendProfile profile_;
  FaultScaleFn fault_scale_;
  LinkUsage* usage_ = nullptr;                     // optional, not owned
  const ContentionScale* contention_ = nullptr;    // optional, not owned
};

// ceil(log2(n)) with log2(1) == 0; shared by the algorithm formulas.
int ceil_log2(int n);

}  // namespace mcrdl::net
