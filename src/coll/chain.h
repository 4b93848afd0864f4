// Chained sub-operation works and the overlap scheduler driving them.
//
// A composite collective is a *chain*: an ordered list of phases, where each
// phase posts one or more asynchronous sub-operations (through the full
// OpPipeline, so fusion admission, fault routing, metrics and traces all see
// them) and the next phase may start only once every sub-op of the previous
// one completed. Nobody owns a thread for this: progress is cooperative.
// Completion callbacks of sub-ops run in event context (they must not block)
// and only update counters; the actual *posting* of the next phase — which
// may sleep, e.g. under launch-delay fault injection — happens in actor
// context inside OverlapScheduler::drive(), entered from ChainWork::wait(),
// Api::synchronize() or the coll pipeline stage's inline wait.
//
// Overlap (CollConfig::overlap): drive() advances every registered chain of
// the rank, not just the one being waited on, so independent composites —
// e.g. the chunks of one large allreduce, or gradient buckets of different
// layers — interleave: one chunk's inter-node hop proceeds while another's
// intra-node reduce is still on the NVLink backend. With overlap off, only
// the waited-on chain advances (drain still advances everything; SPMD
// programs wait in a consistent order, so this cannot deadlock across
// ranks).
//
// Wake discipline (the part that keeps virtual time deadlock-free): each
// rank has one slot {chain list, generation, SimCondition}. Every state
// change bumps `gen` and notifies the condition; a driver with nothing to
// post blocks until `gen` moves.
//
// Failure: a sub-op posting that throws (stale-epoch bounce, exhausted
// retries) stores the error on the chain. The waited-on chain rethrows it
// from wait(); if the chain carries a recover closure (async composites,
// whose parent pipeline frame is long gone), wait() instead re-dispatches
// the original request synchronously through the full pipeline — whose
// recover stage parks, remaps and replays exactly like any flat op. A
// recovery-epoch bump also fails every chain stamped with the old epoch
// (their in-flight sub-ops were cancelled by the quiesce drain and will
// never call back); the runtime pokes the scheduler on each bump so blocked
// drivers wake and observe this.
//
// Recovery granularity: chunked composites recover at *op* granularity, the
// same contract flat ops give — after a loss the tensor is either entirely
// the pre-loss full-world result (every chunk completed) or entirely the
// shrunk-group replay (any chunk failed). Two mechanisms enforce it: every
// chunk chain shares one whole-tensor restore (any failing chunk rewinds the
// published slices of completed siblings, see set_restore) and one run-once
// whole-tensor recover (the replay re-dispatches the full original payload,
// never individual slices). Phases themselves operate on private scratch, so
// a failed chain's started sub-ops — which the quiesce lets deliver after the
// epoch bump — can never write the user payload behind that restore.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/backends/work.h"
#include "src/common/completion.h"
#include "src/sim/scheduler.h"

namespace mcrdl::coll {

class OverlapScheduler;

// One phase of a chain: runs in actor context, posts its sub-ops (async) and
// returns their works. An empty result is a legal no-participation phase
// (e.g. a non-leader during the inter-node hop of a hierarchical allreduce).
using ChainPhase = std::function<std::vector<Work>()>;

class ChainWork : public WorkHandle, public std::enable_shared_from_this<ChainWork> {
 public:
  // Use OverlapScheduler::make_chain(); the constructor is public only for
  // make_shared.
  ChainWork(OverlapScheduler* owner, int rank, std::uint64_t epoch,
            std::vector<ChainPhase> phases, std::function<void()> finalize);

  bool test() const override { return done_; }
  // Drives this rank's chains until this one completes. Rethrows a stored
  // failure — unless a recover closure is installed, in which case the
  // original request is re-dispatched synchronously and the chain completes
  // through the replay.
  void wait() override;
  void synchronize() override { wait(); }
  SimTime complete_time() const override { return complete_time_; }
  void on_complete(InlineFn fn) override;

  // The recovery epoch this chain was issued under (sub-ops are stamped with
  // it; an epoch bump fails the chain for replay).
  std::uint64_t epoch() const { return epoch_; }
  // Installs the elastic-replay closure used by wait() after a rank-loss
  // failure. Only set for async composites; synchronous ones propagate into
  // the parent pipeline frame whose recover stage is still on the stack.
  void set_recover(std::function<void()> fn);
  // Installs the input-restore closure run when the chain is failed for
  // replay. Chain phases run on private scratch and publish into the user
  // payload only through the success-path finalize, so a *single* chain never
  // needs this; it exists for chunked composites, where sibling chunks that
  // completed before a loss already published full-world slices that the
  // whole-tensor replay would re-reduce. The closure rewinds the whole
  // payload to its pre-launch bytes (shared by all chunks, idempotent).
  void set_restore(std::function<void()> fn);

 private:
  friend class OverlapScheduler;

  OverlapScheduler* owner_;
  int rank_;
  std::uint64_t epoch_;

  std::vector<ChainPhase> phases_;
  std::size_t next_phase_ = 0;
  // Incomplete sub-ops of the posted phase; kPosting while a phase closure
  // is executing (so it cannot be posted twice).
  int outstanding_ = 0;
  std::function<void()> finalize_;
  Completion completion_;
  std::exception_ptr error_;
  std::function<void()> recover_;
  std::function<void()> restore_;

  bool done_ = false;
  SimTime complete_time_ = 0.0;
};

// Aggregate over the chunk-chains of one overlapped composite. Not a
// CompositeWork: CompositeWork::wait blocks on a condition without driving
// anything, which would deadlock a chain that needs its waiter to post the
// next phase. This wait() drives each chunk (and, with overlap on, all of
// them interleave while the first is being waited on).
class ChainGroupWork : public WorkHandle, public std::enable_shared_from_this<ChainGroupWork> {
 public:
  explicit ChainGroupWork(std::vector<std::shared_ptr<ChainWork>> chains);
  // Registers completion counting on the chunks; call exactly once on a
  // shared_ptr-owned instance.
  void arm();

  bool test() const override { return done_; }
  void wait() override;
  void synchronize() override { wait(); }
  SimTime complete_time() const override { return complete_time_; }
  void on_complete(InlineFn fn) override;

 private:
  struct ChunkLink;

  void part_done();
  // Idempotent transition to done; also called at the end of wait() so the
  // group completes even when a chunk's part callback was dropped by an
  // errored-chain prune and the chunk later finished through elastic replay.
  void complete_now();

  std::vector<std::shared_ptr<ChainWork>> chains_;
  int remaining_ = 0;
  Completion completion_;
  bool done_ = false;
  SimTime complete_time_ = 0.0;
};

// Per-rank registry and cooperative driver for every live chain. One per
// McrDl runtime (created when CollConfig::enabled).
class OverlapScheduler {
 public:
  OverlapScheduler(sim::Scheduler* sched, int world, bool overlap, int chunks);
  // Drops the completion of every chain still registered.
  ~OverlapScheduler();
  OverlapScheduler(const OverlapScheduler&) = delete;
  OverlapScheduler& operator=(const OverlapScheduler&) = delete;

  sim::Scheduler* scheduler() const { return sched_; }
  bool overlap_enabled() const { return overlap_; }
  // Chunk count for overlapped composites (1 when overlap is disabled: the
  // chunking exists only to create independent chains to interleave).
  int chunks() const { return overlap_ ? chunks_ : 1; }

  // Epoch source for stale-chain detection; unset means "epochs never move".
  void set_epoch_source(std::function<std::uint64_t()> fn) { epoch_fn_ = std::move(fn); }
  std::uint64_t current_epoch() const { return epoch_fn_ ? epoch_fn_() : 0; }

  // Builds, registers and returns a chain. A chain with no phases completes
  // immediately (single-rank composites degenerate to this).
  std::shared_ptr<ChainWork> make_chain(int rank, std::uint64_t epoch,
                                        std::vector<ChainPhase> phases,
                                        std::function<void()> finalize);

  // Drives every chain of `rank` to a terminal state (Api::synchronize).
  // Chains failed by rank loss are dropped, mirroring how the engines'
  // synchronize tolerates RankLostError; other errors propagate.
  void drain(int rank);

  // Wakes every blocked driver (recovery epoch bump: cancelled sub-ops will
  // never call back, so drivers must re-examine their chains). Safe from
  // event context. Returns 0 — it cancels nothing itself.
  std::uint64_t poke();

  // Live (registered) chains of a rank; diagnostics and tests.
  std::size_t live_chains(int rank) const;

 private:
  friend class ChainWork;

  static constexpr int kPosting = -1;

  struct Slot {
    std::vector<std::shared_ptr<ChainWork>> chains;
    std::uint64_t gen = 0;
    std::unique_ptr<sim::SimCondition> cond;
  };

  Slot& slot(int rank) const;
  // Drives until `target` reaches a terminal state (nullptr: until every
  // registered chain has). Rethrows the target's stored error.
  void drive(int rank, const std::shared_ptr<ChainWork>& target);
  void post_next_phase(int rank, const std::shared_ptr<ChainWork>& ch);
  void part_done(int rank, const std::weak_ptr<ChainWork>& ch);
  void maybe_complete(int rank, const std::shared_ptr<ChainWork>& ch);
  // The one done-transition (maybe_complete, and ChainWork::wait after a
  // replay): clears the chain's state and fires its completion; the caller
  // runs the returned callbacks.
  Completion::Callbacks complete(ChainWork& ch);
  static void fail(ChainWork& ch, std::exception_ptr err);
  static void prune(Slot& slot, bool include_errored);

  sim::Scheduler* sched_;
  bool overlap_;
  int chunks_;
  std::function<std::uint64_t()> epoch_fn_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace mcrdl::coll
