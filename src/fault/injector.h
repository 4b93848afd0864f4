// Deterministic fault injection (the chaos half of MCR-DL's resilience
// story).
//
// A FaultPlan is a declarative list of FaultSpecs — transient op failures,
// permanent backend outages, link degradation, rank slowdowns and straggler
// delays — plus a seed and an optional rendezvous-watchdog deadline. The
// FaultInjector evaluates the plan at well-defined injection points:
//
//   * CollectiveEngine / P2pEngine consult `should_fail` exactly once per
//     rendezvous (at creation) so every participating rank observes the
//     same verdict — an injected failure fails the whole collective on all
//     ranks, the way a NIC flap fails a real NCCL call everywhere.
//   * `backend_unavailable` models a crashed/permanently wedged backend
//     from a virtual-time instant onward.
//   * `link_beta_scale` plugs into net::CostModel so degraded links slow
//     operations down in *virtual time* rather than raising exceptions.
//   * `rank_delay` / `rank_launch_scale` stretch one rank's host-side
//     launch path, producing genuine stragglers the rendezvous must wait
//     for.
//
// All decisions derive from one seeded SplitMix64 stream, so a given
// (plan, workload) pair replays the identical fault sequence every run.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fault/watchdog.h"
#include "src/net/comm_types.h"
#include "src/sim/scheduler.h"

namespace mcrdl::fault {

// Which part of the topology a LinkDegradation spec slows down.
enum class LinkScope { All, IntraNode, InterNode };

enum class FaultKind {
  Transient,         // an op attempt fails with probability p
  Outage,            // backend permanently out of service from `from_us`
  LinkDegradation,   // β on matching links multiplied by `factor` (> 1 = slower)
  RankSlowdown,      // one rank's launch latency scaled by `factor` (> 1)
  Straggler,         // one rank delayed by `delay_us` per operation
  RankLoss,          // rank permanently gone from `from_us` (elastic recovery)
  RankRejoin,        // previously lost rank re-admitted at `from_us` (grow-back)
};

const char* link_scope_name(LinkScope scope);

constexpr SimTime kNoEnd = std::numeric_limits<double>::infinity();

// One declarative fault. Use the factory helpers; the raw fields exist so
// plans can round-trip through the text format.
struct FaultSpec {
  FaultKind kind = FaultKind::Transient;
  std::string backend;          // "" matches every backend
  bool any_op = true;           // when false, only `op` is affected
  OpType op = OpType::AllReduce;
  int rank = -1;                // -1 matches every rank (slowdown/straggler)
  double probability = 0.0;     // Transient
  SimTime from_us = 0.0;        // window start (Outage: outage instant)
  SimTime until_us = kNoEnd;    // window end (exclusive)
  double factor = 1.0;          // LinkDegradation β multiplier / slowdown scale
  LinkScope scope = LinkScope::All;
  SimTime delay_us = 0.0;       // Straggler per-op delay

  bool matches_backend(const std::string& name) const {
    return backend.empty() || backend == name;
  }
  bool matches_op(OpType o) const { return any_op || op == o; }
  bool active_at(SimTime now) const { return now >= from_us && now < until_us; }

  static FaultSpec transient(std::string backend, double probability,
                             SimTime from_us = 0.0, SimTime until_us = kNoEnd);
  static FaultSpec transient_op(std::string backend, OpType op, double probability,
                                SimTime from_us = 0.0, SimTime until_us = kNoEnd);
  static FaultSpec outage(std::string backend, SimTime from_us);
  static FaultSpec degrade_links(std::string backend, double beta_factor,
                                 LinkScope scope = LinkScope::All, SimTime from_us = 0.0,
                                 SimTime until_us = kNoEnd);
  static FaultSpec slow_rank(int rank, double scale, SimTime from_us = 0.0,
                             SimTime until_us = kNoEnd);
  static FaultSpec straggler(int rank, SimTime delay_us, SimTime from_us = 0.0,
                             SimTime until_us = kNoEnd);
  // Permanent loss of one rank at a virtual-time instant. Several specs with
  // the same `at_us` model a node going down and are recovered as one epoch.
  static FaultSpec lose_rank(int rank, SimTime at_us);
  // Re-admission of a previously lost rank at a virtual-time instant (the
  // grow half of elasticity). Several specs with the same `at_us` model a
  // node coming back and are admitted as one grow epoch. A rejoin at the
  // same instant as a loss wins: the rank is alive from that instant on.
  static FaultSpec rejoin_rank(int rank, SimTime at_us);
};

// A complete chaos scenario: the specs plus the seed that makes transient
// decisions reproducible and the rendezvous-watchdog deadline (0 disables
// the watchdog). Serialises to a line-oriented text format:
//
//   # comment
//   seed 42
//   watchdog 500000
//   transient <backend|*> <op|*> <p> [from] [until]
//   outage <backend> <from_us>
//   degrade <backend|*> <all|intra|inter> <beta_factor> [from] [until]
//   slowdown <rank> <scale> [from] [until]
//   straggler <rank> <delay_us> [from] [until]
//   rank_loss <rank> <at_us>
//   rank_rejoin <rank> <at_us>
struct FaultPlan {
  std::uint64_t seed = 0x5eedf00dULL;
  SimTime watchdog_deadline_us = 0.0;
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty() && watchdog_deadline_us == 0.0; }

  std::string serialize() const;
  static FaultPlan parse(const std::string& text);
  void save(const std::string& path) const;
  static FaultPlan load(const std::string& path);
};

// β multipliers handed to net::CostModel (net::CostModel::set_fault_scale).
struct BetaScale {
  double intra = 1.0;
  double inter = 1.0;
  bool identity() const { return intra == 1.0 && inter == 1.0; }
};

// Counters the chaos tooling reports; incremented at the injection points.
struct InjectionStats {
  std::uint64_t transient_injected = 0;   // doomed rendezvous / p2p ops
  std::uint64_t outage_rejections = 0;    // ops refused on a dead backend
  std::uint64_t watchdog_timeouts = 0;    // rendezvous deadlines fired
  std::uint64_t straggler_delays = 0;     // per-rank submit delays applied
  SimTime delay_injected_us = 0.0;        // total straggler/slowdown time
  std::uint64_t rank_loss_rejections = 0; // ops doomed for involving a lost rank
};

// The per-cluster decision engine. Lives on ClusterContext (always present,
// disabled by default) so engines and cost models can hold a stable pointer
// regardless of when — or whether — a plan is installed.
class RecoveryManager;

class FaultInjector {
 public:
  explicit FaultInjector(sim::Scheduler* sched);
  ~FaultInjector();  // out-of-line: RecoveryManager is incomplete here
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs a plan (resets the rng stream and stats). An empty plan with a
  // watchdog deadline still enables the watchdog.
  void configure(FaultPlan plan);
  // Returns to the disabled, fault-free state.
  void reset();
  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  // --- decision queries ----------------------------------------------------
  // True once a matching Outage spec's instant has passed.
  bool backend_unavailable(const std::string& backend) const;
  // One verdict per collective/p2p instance; consumes the seeded stream
  // only when a matching transient spec is active.
  bool should_fail(const std::string& backend, OpType op);
  // Product of active LinkDegradation factors for each link class.
  BetaScale link_beta_scale(const std::string& backend, OpType op) const;
  // Multiplier (>= 1) on `rank`'s host-side launch latency.
  double rank_launch_scale(int global_rank) const;
  // Fixed straggler delay charged to `rank` at operation submit.
  SimTime rank_delay(int global_rank) const;
  SimTime watchdog_deadline_us() const { return enabled_ ? plan_.watchdog_deadline_us : 0.0; }
  // True while the latest RankLoss/RankRejoin event for this rank whose
  // instant has passed is a loss (a rejoin at the same instant wins the
  // tie). Engines classify rendezvous against this so every joiner observes
  // loss and rejoin identically, even before the recovery event for that
  // instant has been dispatched.
  bool rank_lost(int global_rank) const;
  // The subset of `global_ranks` that is lost at the current instant.
  std::vector<int> lost_members(const std::vector<int>& global_ranks) const;
  // Whether the installed plan declares any permanent rank losses at all
  // (time-independent; used by tooling to pick the elastic code path).
  bool has_rank_loss() const;
  // Whether the installed plan declares any rank rejoins (time-independent).
  bool has_rank_rejoin() const;

  // Bookkeeping from the injection points.
  void note_transient() { ++stats_.transient_injected; }
  void note_outage_rejection() { ++stats_.outage_rejections; }
  void note_watchdog_timeout() { ++stats_.watchdog_timeouts; }
  void note_injected_delay(SimTime us) {
    ++stats_.straggler_delays;
    stats_.delay_injected_us += us;
  }
  void note_rank_loss_rejection() { ++stats_.rank_loss_rejections; }

  const InjectionStats& stats() const { return stats_; }
  sim::Scheduler* scheduler() const { return sched_; }
  Watchdog& watchdog() { return watchdog_; }
  // The elastic-recovery state machine for this cluster (src/fault/recovery.h).
  // Always present; disarmed (and zero-cost) until a plan with rank_loss
  // specs is installed and armed by McrDl::init.
  RecoveryManager& recovery() { return *recovery_; }

 private:
  SimTime now() const { return sched_->now(); }

  sim::Scheduler* sched_;
  bool enabled_ = false;
  FaultPlan plan_;
  Rng rng_;
  InjectionStats stats_;
  Watchdog watchdog_{sched_};
  std::unique_ptr<RecoveryManager> recovery_;
};

}  // namespace mcrdl::fault
