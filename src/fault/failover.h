// Backend failover routing — the payoff of mix-and-match communication.
//
// MCR-DL already routes each operation to the backend the tuning table (or
// static preference) says is fastest. The FailoverRouter layers *health* on
// top of that ordering: when the preferred backend is unavailable (injected
// outage or opened circuit breaker), the op is deterministically re-routed
// to the next-best healthy backend in the same preference order, and the
// decision is surfaced through CommRecord's `rerouted`/`attempts` fields so
// Chrome traces show failover visually.
//
// The router also owns the resilience bookkeeping a chaos run reports: how
// many ops were attempted, retried, rerouted, or ultimately failed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/fault/injector.h"
#include "src/fault/policy.h"

namespace mcrdl::fault {

// Aggregate outcome of a (chaos) run, printed by tools/mcrdl_chaos.cc.
struct ResilienceReport {
  std::uint64_t attempted = 0;       // operation issues, including retries
  std::uint64_t succeeded = 0;       // operations that eventually completed
  std::uint64_t retried = 0;         // retry attempts after a transient fault
  std::uint64_t rerouted = 0;        // operations moved to another backend
  std::uint64_t failed = 0;          // operations that exhausted every option
  std::uint64_t breakers_tripped = 0;
  SimTime backoff_time_us = 0.0;     // virtual time charged to retry backoff

  // --- elastic recovery (src/fault/recovery.h) ------------------------------
  // Mirrored from RecoveryStats by the bound RecoveryManager; all zero (and
  // omitted from to_string) when no rank_loss fault is in play.
  std::uint64_t ranks_lost = 0;        // ranks permanently lost
  std::uint64_t epochs = 0;            // recovery epochs completed
  std::uint64_t recovered = 0;         // ops replayed onto a shrunk communicator
  std::uint64_t stale_rejections = 0;  // old-epoch ops bounced before issue
  // Grow-back half (all zero — and omitted from to_string — unless a
  // rank_rejoin spec or a checkpoint restore is in play).
  std::uint64_t ranks_rejoined = 0;       // lost ranks re-admitted by grow events
  std::uint64_t grow_events = 0;          // quiesce->grow->resume cycles completed
  std::uint64_t checkpoint_restores = 0;  // CheckpointStore restores applied

  // Per-backend failure/reroute breakdown, filled by the route stage.
  struct BackendCounters {
    std::uint64_t failed = 0;    // attempts that errored on this backend
    std::uint64_t rerouted = 0;  // ops moved *away* from this backend
    std::uint64_t grow_drained = 0;  // pending ops reset-for-replay by grow events
  };
  std::map<std::string, BackendCounters> by_backend;

  std::string to_string() const;
};

// Opt-in fault configuration carried on McrDlOptions.
struct FaultOptions {
  bool enabled = false;       // master switch; false = zero behavior change
  FaultPlan plan;             // what to inject (may be empty: policies only)
  RetryPolicy retry;          // transient-fault retry schedule
  int breaker_threshold = 3;  // consecutive failures before a backend opens
  int breaker_cooldown = 2;   // half-open successes before a backend closes
  // Denied routes before an open breaker half-opens for a probe; <= 0
  // keeps tripped breakers open for the life of the run.
  int breaker_probe_after_ops = 8;
  bool failover = true;       // re-route on unhealthy backends ("auto" routing)
  // Warm spares: global ranks excluded from the initial world (modelled as
  // rank_loss at t=0) that a later rank_rejoin spec can grow onto. The run
  // starts on world minus spares; capacity returns via the grow path.
  std::vector<int> spare_ranks;

  BreakerConfig breaker_config() const {
    return BreakerConfig{breaker_threshold, breaker_cooldown, breaker_probe_after_ops};
  }
};

// Health-aware routing over a fixed preference order. One instance per
// McrDl context; shared by all ranks (the single-baton scheduler serialises
// access).
class FailoverRouter {
 public:
  FailoverRouter(FaultInjector* injector, RetryPolicy retry, BreakerConfig breaker,
                 bool failover_enabled);
  // Legacy shape: default cooldown/probe cadence with an explicit threshold.
  FailoverRouter(FaultInjector* injector, RetryPolicy retry, int breaker_threshold,
                 bool failover_enabled)
      : FailoverRouter(injector, retry, BreakerConfig{breaker_threshold, 2, 8},
                       failover_enabled) {}

  // True when `rank` may still issue on `backend` (its breaker is closed).
  // Deliberately *not* a live outage check: outages are observed through
  // the per-rendezvous verdict (BackendUnavailable at issue), which every
  // rank sees at the same logical operation. Routing off live injector
  // time would let ranks at different virtual times — stragglers — make
  // different decisions for the same op and desync sequence numbers.
  bool healthy(const std::string& backend, int rank) const;

  // The preference order is `preferred` first, then `order` (init order)
  // without it; neither call builds it.
  //
  // Picks the backend `rank` issues on: `preferred` when healthy, otherwise
  // the first healthy entry of the preference order. Throws
  // BackendUnavailable when nothing is healthy (or when failover is disabled
  // and `preferred` is down).
  std::string select(const std::string& preferred, const std::vector<std::string>& order,
                     int rank) const;

  // After `failed` errored out for `rank`: the next healthy backend strictly
  // after it in the preference order (entries before `failed` were already
  // preferred and are reconsidered only if healthy — tuning order wins, then
  // static order). Throws BackendUnavailable when no healthy candidate
  // remains.
  std::string next_healthy(const std::string& failed, const std::string& preferred,
                           const std::vector<std::string>& order, int rank) const;

  void record_success(const std::string& backend, int rank);
  // Returns true if this failure tripped the backend's breaker.
  bool record_failure(const std::string& backend, int rank);

  // An op preferring `backend` is about to route: ages the breaker toward
  // its half-open probe when the backend is open (see CircuitBreaker::
  // note_skipped). Called by the route stage for collectives only — p2p
  // traffic is rank-asymmetric, and aging on it would desync the skip
  // counts that keep probes aligned across ranks.
  void age_breaker(const std::string& backend, int rank);

  const RetryPolicy& retry() const { return retry_; }
  bool failover_enabled() const { return failover_; }
  CircuitBreaker& breaker() { return breaker_; }
  FaultInjector* injector() const { return injector_; }

  ResilienceReport& report() { return report_; }
  const ResilienceReport& report() const { return report_; }

 private:
  FaultInjector* injector_;  // may be null (policies without injection)
  RetryPolicy retry_;
  CircuitBreaker breaker_;
  bool failover_;
  ResilienceReport report_;
  std::set<std::string> tripped_backends_;  // report each backend's trip once
};

}  // namespace mcrdl::fault
