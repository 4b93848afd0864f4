// Elastic recovery: quiesce, shrink, and resume after permanent rank loss —
// plus the grow half: quiesce, grow, resume when lost ranks rejoin.
//
// A permanent rank (or whole-node) outage used to end a run: the watchdog
// would name the missing ranks and every waiter unwound with a TimeoutError.
// The RecoveryManager instead turns each injected `rank_loss` instant into a
// deterministic three-phase state machine, executed under the baton at the
// loss's virtual-time instant:
//
//   * Quiesce — a cluster-wide, barrier-free drain: every registered engine
//     cancels its pending rendezvous/p2p ops that involve a lost rank, so
//     waiters unwind with a retriable RankLostError instead of a generic
//     timeout. Rendezvous whose wire phase already started are left alone —
//     packets in flight deliver, consistently, on every survivor.
//   * Shrink — the survivor set and the epoch counter advance. Every
//     OpRequest is stamped with the epoch it was issued under; the issue
//     stage rejects stale-epoch ops (they re-enter the recover stage and are
//     replayed), so stragglers from the old epoch can never deadlock the new
//     one.
//   * Resume — epoch waiters wake; the pipeline's `recover` stage remaps
//     each failed op's group/root/peer onto the survivors, re-resolves the
//     backend for the new world size, and re-issues.
//
// Grow-back (`rank_rejoin` specs) mirrors shrink with the phases
// Quiesce→Grow→Resume: registered grow hooks reset per-engine sequence and
// matching state on communicators whose membership includes a rejoined rank
// (their rendezvous counters drifted while the rank was dead), the rank
// leaves the lost set, the epoch advances, and waiters wake into the
// enlarged world. Warm spares are rank_loss specs at t=0: they are applied
// synchronously at arm() as pre-start exclusions (one epoch bump, no drain,
// no scheduled event) so the workload starts on the shrunk world and later
// grows onto the spares.
//
// The manager is owned by the FaultInjector (always present per cluster) but
// stays disarmed — and therefore zero-cost and byte-identical in behaviour —
// unless the installed FaultPlan contains at least one rank_loss or
// rank_rejoin spec.
//
// Layering: src/fault must not depend on src/backends, so engines register
// drain hooks as plain callbacks (register_drain/unregister_drain,
// register_grow/unregister_grow) instead of the manager knowing about
// rendezvous tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/fault/failover.h"
#include "src/net/comm_types.h"
#include "src/sim/scheduler.h"

namespace mcrdl::obs {
class MetricsRegistry;
}  // namespace mcrdl::obs

namespace mcrdl::fault {

class FaultInjector;

enum class RecoveryPhase { Idle, Quiesce, Shrink, Grow, Resume };

// Human-readable diagnostic for an operation doomed by permanent rank loss;
// names the dead ranks so logs read like the watchdog's timeout messages.
std::string describe_rank_loss(OpType op, const std::string& backend,
                               const std::vector<int>& lost_global);

// Counters the recovery state machine maintains (mirrored into the bound
// ResilienceReport so chaos tooling prints them).
struct RecoveryStats {
  std::uint64_t ranks_lost = 0;        // total ranks permanently lost
  std::uint64_t epochs = 0;            // completed shrink + grow recovery cycles
  std::uint64_t quiesced_ops = 0;      // in-flight ops cancelled during drains
  std::uint64_t recovered_ops = 0;     // ops successfully replayed on a new epoch
  std::uint64_t stale_rejections = 0;  // old-epoch ops bounced at the issue stage
  std::uint64_t ranks_rejoined = 0;    // lost ranks re-admitted by grow events
  std::uint64_t grow_events = 0;       // completed quiesce->grow->resume cycles
  std::uint64_t checkpoint_restores = 0;  // restore_state() calls on this manager
  std::uint64_t rejoins_rejected = 0;  // rejoin of a rank that was not lost
};

class RecoveryManager {
 public:
  // A drain hook cancels the engine's pending work involving any rank in
  // `lost` and returns how many operations it cancelled.
  using DrainFn = std::function<std::uint64_t(const std::vector<int>& lost)>;
  // A grow hook resets the engine's per-communicator sequencing/matching
  // state for communicators whose membership includes a rank in `rejoined`
  // and returns how many pending operations it cancelled for replay.
  using GrowFn = std::function<std::uint64_t(const std::vector<int>& rejoined)>;

  RecoveryManager(sim::Scheduler* sched, FaultInjector* injector);
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // Scans the injector's installed plan for rank_loss/rank_rejoin specs and
  // schedules one combined event per distinct instant (simultaneous losses —
  // a node going down — are processed as one epoch; a loss and a rejoin at
  // the same instant process the loss first). rank_loss specs at t=0 are
  // warm-spare exclusions applied synchronously here, before any actor runs.
  // Stays disarmed when the plan has neither spec kind, so arming is free
  // for every other fault scenario.
  void arm(int world_size);
  // Cancels scheduled loss events and returns to Idle. Registered drain
  // hooks are kept: they belong to engine lifetime, not plan lifetime.
  void disarm();
  bool armed() const { return armed_; }

  // --- epoch state ----------------------------------------------------------
  std::uint64_t epoch() const { return epoch_; }
  RecoveryPhase phase() const { return phase_; }
  bool lost(int global_rank) const { return lost_.count(global_rank) > 0; }
  const std::vector<int>& survivors() const { return survivors_; }
  std::vector<int> lost_ranks() const { return {lost_.begin(), lost_.end()}; }
  // `members` with the lost ranks removed (order preserved).
  std::vector<int> shrink_group(const std::vector<int>& members) const;

  // --- quiesce hooks --------------------------------------------------------
  std::uint64_t register_drain(DrainFn fn);
  void unregister_drain(std::uint64_t id);
  // Grow hooks are keyed by the registering backend's name so drained-for-
  // replay counts can be attributed per backend in the ResilienceReport.
  std::uint64_t register_grow(std::string backend, GrowFn fn);
  void unregister_grow(std::uint64_t id);

  // The loss event itself. Runs under the baton (never throws, never
  // blocks): drains every engine, advances the epoch, wakes epoch waiters.
  // Also callable from actor context (tests inject mid-run losses directly).
  void on_rank_loss(const std::vector<int>& ranks);

  // The grow event: rejoining ranks that are currently lost leave the lost
  // set after grow hooks reset communicator state; never-lost or duplicate
  // rejoins are counted as rejected and change nothing. Advances the epoch
  // (once per event with at least one admitted rank) and wakes epoch
  // waiters, so in-flight ops on the smaller world are rejected and
  // replayed exactly like shrink does.
  void on_rank_rejoin(const std::vector<int>& ranks);

  // Blocks the calling actor until the epoch advances past `epoch` — the
  // recover stage parks here after a RankLostError so replays can never spin
  // at the same epoch before the loss event has been processed.
  void wait_epoch_past(std::uint64_t epoch);

  // --- bookkeeping ----------------------------------------------------------
  void note_recovered();
  void note_stale_rejection();
  const RecoveryStats& stats() const { return stats_; }
  // Mirrors ranks_lost/epochs/recovered/stale counts into `report` (pass
  // nullptr to detach). The report outlives chaos runs; the manager pushes
  // updates at every state change.
  void bind_report(ResilienceReport* report);
  // Records grow/restore events as `recovery_grow_*` counters in `registry`
  // (pass nullptr to detach). Purely observational.
  void bind_metrics(obs::MetricsRegistry* registry);

  // --- checkpoint (fault::CheckpointStore section body) ---------------------
  // Deterministic line-oriented snapshot of the elastic state: world size,
  // epoch, lost set, and counters. The restore count itself is deliberately
  // not serialized so save→restore→save round-trips byte-identically.
  std::string save_state() const;
  // Restores a save_state() body into this manager (arming it if the
  // snapshot carries a non-trivial world), bumps checkpoint_restores, and
  // wakes epoch waiters. Throws InvalidArgument on malformed bodies.
  void restore_state(const std::string& body);

 private:
  void push_report();

  sim::Scheduler* sched_;
  FaultInjector* injector_;
  bool armed_ = false;
  std::uint64_t epoch_ = 0;
  RecoveryPhase phase_ = RecoveryPhase::Idle;
  int world_size_ = 0;
  std::vector<int> survivors_;
  std::set<int> lost_;
  std::map<std::uint64_t, DrainFn> drains_;
  struct GrowHook {
    std::string backend;
    GrowFn fn;
  };
  std::map<std::uint64_t, GrowHook> grows_;
  std::uint64_t next_drain_id_ = 1;
  std::vector<std::uint64_t> loss_events_;
  RecoveryStats stats_;
  std::map<std::string, std::uint64_t> grow_drained_;  // per-backend, for the report
  ResilienceReport* report_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  sim::SimCondition epoch_cond_;
};

}  // namespace mcrdl::fault
