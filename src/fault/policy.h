// Resilience policies: how the runtime *responds* to injected (or real)
// faults, as opposed to src/fault/injector.h which decides when they occur.
//
// Two standard mechanisms:
//
//   * RetryPolicy — bounded retry with exponential backoff for
//     TransientFault. Backoff is charged to virtual time by the caller
//     (the route stage sleeps on the scheduler), so retries are visible in
//     the simulated timeline exactly like they would be on a wall clock.
//   * CircuitBreaker — a per-(backend, rank) three-state machine:
//
//         Closed ──threshold consecutive failures──▶ Open
//         Open ──probe_after_ops denied routes / allow_probe()──▶ HalfOpen
//         HalfOpen ──cooldown consecutive successes──▶ Closed
//         HalfOpen ──any failure──▶ Open  (skip count restarts)
//
//     Both the counts and the health are tracked per (backend, rank): a
//     rank's routing decisions must depend only on the fault verdicts *it*
//     has observed, which are identical across ranks at the same logical
//     operation (one verdict per rendezvous). Global health would let a
//     fast rank's trip — recorded while retrying a *later* op — leak into
//     a straggling rank's retry of an earlier op, desyncing the
//     per-communicator sequence numbers the engines key rendezvous on
//     (observed as a virtual-time deadlock).
//
//     Probe admission follows the same rule: it is driven by the count of
//     operations that *preferred* the open backend and were routed away
//     (note_skipped), never by raw virtual time. Every rank resolves the
//     same preferred backend for the same logical op, so skip counts — and
//     therefore the Open→HalfOpen transition — line up across ranks, while
//     a wall-clock cooldown would let a straggler probe a different
//     logical op than its peers and desync sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace mcrdl::fault {

// Exponential backoff schedule for transient-fault retries, with optional
// deterministic full jitter: after a shared outage every rank's retry timer
// expires together, and the synchronized storm re-collides on whatever
// capacity is left. Seeded per-(rank, attempt) jitter decorrelates the
// schedules while keeping replays byte-identical for a fixed seed.
struct RetryPolicy {
  int max_attempts = 3;             // total attempts per backend (first + retries)
  SimTime base_backoff_us = 50.0;   // backoff before the first retry
  double backoff_multiplier = 2.0;  // growth per subsequent retry
  // 0 disables jitter (the exact exponential schedule below); any other
  // value enables full jitter — backoff drawn uniformly from (0, window]
  // where window is the exponential backoff for that attempt.
  std::uint64_t jitter_seed = 0;

  // Virtual-time backoff charged before retry number `attempt` (1-based:
  // attempt 1 is the first retry). The exponential window, jitter-free.
  SimTime backoff(int attempt) const {
    SimTime b = base_backoff_us;
    for (int i = 1; i < attempt; ++i) b *= backoff_multiplier;
    return b;
  }

  // The backoff `rank` actually sleeps before retry `attempt`: the
  // exponential window when jitter is disabled, otherwise a full-jitter
  // draw from a stream derived only from (jitter_seed, rank, attempt) — no
  // shared rng state, so two ranks retrying concurrently can never perturb
  // each other's draws and replay order cannot change the schedule.
  SimTime backoff(int attempt, int rank) const;
};

enum class BreakerState { Closed, Open, HalfOpen };
inline constexpr std::size_t kNumBreakerStates = 3;

// Human-readable state name ("closed" / "open" / "half_open"); used as a
// metrics label by the transition hook installed in McrDl::init.
const char* breaker_state_name(BreakerState state);

struct BreakerConfig {
  int threshold = 3;        // consecutive failures before Closed -> Open
  int cooldown = 2;         // consecutive half-open successes before -> Closed
  // Denied routes (ops that preferred this backend while open) before an
  // automatic Open -> HalfOpen probe; <= 0 disables automatic probing
  // (allow_probe() remains available).
  int probe_after_ops = 8;
};

// Dense handle of one (backend, rank) breaker: CircuitBreaker::slot()
// hands them out in creation order, and an id stays valid for the breaker's
// whole life, reset() included.
using BreakerSlotId = std::uint32_t;

// Invoked on every state transition, after the state changed, with the
// slot's id, key and rank. Purely observational — the obs layer counts
// open/half-open/close events with it, and may cache per-(slot, state)
// counters by the id. It must not create slots.
using BreakerTransitionHook = std::function<void(BreakerSlotId slot, const std::string& backend,
                                                 int rank, BreakerState to)>;

// Per-(backend, rank) three-state breaker. Deterministic and
// allocation-light; shared by every rank of a cluster (the simulator is
// single-batoned, so no locking is needed beyond the scheduler's own
// serialisation).
//
// The entries live in a dense vector of slots, one per (backend, rank) ever
// seen. A caller that keeps asking about the same keys resolves each one
// to a slot once and then drives the slot-taking overloads, which index the
// vector directly; the string-keyed overloads look the slot up (or, for
// record_failure, create it) and run the same state machine.
class CircuitBreaker {
 public:
  using SlotId = BreakerSlotId;

  explicit CircuitBreaker(int threshold = 3) : CircuitBreaker(BreakerConfig{threshold, 2, 8}) {}
  explicit CircuitBreaker(BreakerConfig config);

  // The slot of (backend, rank), created Closed with no history if new.
  SlotId slot(const std::string& backend, int rank);
  std::size_t num_slots() const { return slots_.size(); }

  // Records one failed attempt by `rank` on `backend`. Returns true if this
  // failure tripped the breaker (Closed reaching the threshold, or a failed
  // half-open probe re-opening it).
  bool record_failure(SlotId id);
  bool record_failure(const std::string& backend, int rank) {
    return record_failure(slot(backend, rank));
  }
  // A successful attempt: resets the consecutive-failure count when Closed;
  // when HalfOpen, counts toward `cooldown` and closes the breaker once
  // enough consecutive probes succeeded.
  void record_success(SlotId id);
  void record_success(const std::string& backend, int rank) {
    if (const SlotId* id = find(backend, rank)) record_success(*id);
  }

  // An operation preferring `backend` was routed elsewhere while the
  // breaker was open. After `probe_after_ops` such denials the breaker
  // moves to HalfOpen, so the next preferring op becomes the probe. No-op
  // unless Open.
  void note_skipped(SlotId id);
  void note_skipped(const std::string& backend, int rank) {
    if (const SlotId* id = find(backend, rank)) note_skipped(*id);
  }
  // Explicit Open -> HalfOpen transition; returns false (and does nothing)
  // unless the breaker is currently Open.
  bool allow_probe(SlotId id);
  bool allow_probe(const std::string& backend, int rank) {
    const SlotId* id = find(backend, rank);
    return id != nullptr && allow_probe(*id);
  }

  // True unless Open: half-open breakers admit traffic (the probe).
  bool healthy(SlotId id) const { return state(id) != BreakerState::Open; }
  bool healthy(const std::string& backend, int rank) const {
    return state(backend, rank) != BreakerState::Open;
  }
  BreakerState state(SlotId id) const { return slots_[id].entry.state; }
  BreakerState state(const std::string& backend, int rank) const {
    const SlotId* id = find(backend, rank);
    return id == nullptr ? BreakerState::Closed : state(*id);
  }

  int threshold() const { return config_.threshold; }
  const BreakerConfig& config() const { return config_; }
  // Consecutive failures recorded for (backend, rank); for introspection.
  int consecutive_failures(SlotId id) const { return slots_[id].entry.failures; }
  int consecutive_failures(const std::string& backend, int rank) const {
    const SlotId* id = find(backend, rank);
    return id == nullptr ? 0 : consecutive_failures(*id);
  }

  void set_transition_hook(BreakerTransitionHook hook) { hook_ = std::move(hook); }
  // Every breaker reads Closed with no history again. Slots and their ids
  // stay valid, as do the config and the transition hook.
  void reset();

 private:
  struct Entry {
    BreakerState state = BreakerState::Closed;
    int failures = 0;   // consecutive failures (Closed) / last streak (Open)
    int skipped = 0;    // denied routes since the breaker opened
    int successes = 0;  // consecutive half-open probe successes
  };
  struct Slot {
    std::string backend;
    int rank = 0;
    Entry entry;
  };
  // The slot of (backend, rank), or nullptr when it was never created.
  const SlotId* find(const std::string& backend, int rank) const;
  void transition(SlotId id, BreakerState to);

  BreakerConfig config_;
  std::vector<Slot> slots_;
  std::map<std::pair<std::string, int>, SlotId> index_;
  BreakerTransitionHook hook_;
};

}  // namespace mcrdl::fault
