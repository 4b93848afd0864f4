// The composable operation pipeline behind the MCR-DL facade.
//
// Every Listing-1 call is packed into an OpRequest (src/backends/op_request.h)
// and executed by the OpPipeline, a middleware chain of OpStages. A stage
// receives the in-flight OpCall plus a `next` continuation; it may adjust the
// call, invoke `next()` zero or more times (the fault stage re-invokes it per
// retry/failover attempt), and post-process the returned Work. The request
// path runs through the stages in list order; the completion path unwinds in
// reverse, so the logging stage — though listed before routing — observes the
// final outcome of the whole retry loop.
//
// Built-in order (OpPipeline::stage_names()):
//
//   overhead     per-call host overhead (paper C3)
//   resolve      backend-string resolution; "auto" -> tuning table (V-F)
//   fusion       bucketing admission for small collectives (V-C)
//   compression  compression admission by op/dtype/size (V-E)
//   finish       attaches the CommLogger record on completion (V-D)
//   recover      elastic rank-loss recovery: epoch stamp + replay (src/fault/)
//   route        fault-aware retry/backoff/failover (src/fault/)
//   issue        terminal: fused / compressed / native / emulated issue (V-B)
//
// To add a layer (per-op metrics, batching, persistent-collective caching...),
// implement OpStage and call insert_before/insert_after with a neighbour's
// name — no per-op code needed, the stage sees every operation.
//
// Hot path (DESIGN.md §14). Dispatch has two shapes selected by
// McrDlOptions::fast_dispatch:
//
//   fast (default) — the OpCall comes from a per-rank arena (container
//   capacity survives recycling, so steady-state dispatch allocates
//   nothing), the op runs a precompiled StagePlan that omits provably no-op
//   stages, and the finish stage uses cached metric handles instead of
//   building label maps per call.
//
//   slow — the pre-fast-path shape: a fresh OpCall per op, every stage
//   invoked, labels built per call. Kept as the referee: golden-trace tests
//   pin that both shapes produce byte-identical virtual time, and the
//   `hotpath` benchmark reports the two as its before/after series.
//
// Skipped stages cannot move virtual time by construction (that is the
// compile rule), and each one still gets a 0.0 observation into its
// `pipeline_stage_us` histogram — exactly what its no-op invocation would
// have recorded — so per-stage metrics are identical under both shapes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/backends/op_request.h"
#include "src/backends/work.h"
#include "src/coll/spec.h"
#include "src/obs/metrics.h"

namespace mcrdl {

class Api;
class Backend;
class Comm;
class McrDl;
class OpPipeline;

// One precompiled pass over the stage list for a given (op, config) pair:
// the stage indices to run, in order, plus the provably no-op stages that
// were elided (each still receives a 0.0 histogram observation per op).
struct StagePlan {
  std::vector<std::uint8_t> seq;
  std::vector<std::uint8_t> skipped;
};

// The config snapshot the plan compiler hands to OpStage::provably_noop.
// The four booleans are the dynamic toggles re-read on every dispatch (they
// index the plan table); everything else a stage wants to inspect is
// reachable through ctx.
struct StagePlanInputs {
  McrDl* ctx = nullptr;
  OpType op = OpType::Barrier;
  bool overhead_on = false;
  bool fusion_on = false;
  bool compression_on = false;
  bool recovery_armed = false;
  bool coll_on = false;
};

// The mutable state of one operation travelling through the pipeline.
struct OpCall {
  McrDl* ctx = nullptr;
  int rank = 0;                  // caller's global rank
  std::vector<int> group;        // empty = world communicator
  OpRequest req;

  // Filled by the resolve stage.
  std::size_t bytes = 0;         // payload size (tuning/logging convention)
  Backend* resolved = nullptr;   // preferred backend after "auto" resolution
  std::string requested;         // its name; CommRecord.requested_backend

  // Filled by the resolve stage when the choice is a composite algorithm
  // ("hier:...", "rsag..."): `resolved` stays null and the coll stage hands
  // the call to coll::launch instead of the route/issue tail.
  bool is_composite = false;
  coll::CompositeSpec composite;

  // Filled by the admission stages.
  bool admit_fusion = false;
  bool admit_compression = false;

  // Maintained by the routing stage across attempts.
  Backend* attempt_backend = nullptr;  // backend for the current attempt
  int attempts = 1;
  bool rerouted = false;
  std::string fault;             // last injected failure: "", "transient",
                                 // "unavailable", "rank_lost"
  std::string completed_on;      // backend name the op finally completed on

  // Maintained by the recover stage: true once the op was replayed on a
  // shrunk communicator after a rank loss (req.epoch carries the epoch).
  bool recovered = false;

  // Outcome of the current issue attempt (reset by the issue stage).
  bool fused = false;
  bool compressed = false;

  // True when this call is on the arena fast path (cached metric handles in
  // the finish stage); false reproduces the pre-fast-path dispatch shape.
  bool fast = false;

  // The compiled stage sequence this call runs (owned by the pipeline's
  // plan table, which outlives every in-flight call).
  const StagePlan* plan = nullptr;

  // Virtual time spent inside downstream stages, indexed by *plan position*;
  // the pipeline uses it to compute each stage's *exclusive* time for the
  // `pipeline_stage_us` histograms (sized by execute()).
  std::vector<double> stage_child_us;

  // Size of the call's communicator (group or world).
  int world_size() const;
  // The group/world communicator of `b` for this call.
  Comm* comm_for(Backend* b) const;

  // Keep-capacity reset for arena reuse: drops tensor/backend references and
  // clears strings/vectors without freeing their buffers.
  void recycle();
};

// Continuation invoking the remainder of the pipeline on the current call.
// A plain (pipeline, call, position) triple — constructing and copying one
// never allocates, unlike the std::function it replaced (whose three-word
// capture exceeded the small-buffer optimisation on every stage hop).
class OpNext {
 public:
  Work operator()() const;

 private:
  friend class OpPipeline;
  OpNext(OpPipeline* pipeline, OpCall* call, std::size_t pos)
      : pipeline_(pipeline), call_(call), pos_(pos) {}

  OpPipeline* pipeline_;
  OpCall* call_;
  std::size_t pos_;
};

class OpStage {
 public:
  virtual ~OpStage() = default;
  virtual const char* name() const = 0;
  virtual Work run(OpCall& call, const OpNext& next) = 0;
  // True if, under the given config snapshot, run() would provably neither
  // move virtual time nor change the call — the plan compiler elides such
  // stages from the fast path. Default false: custom stages always run.
  virtual bool provably_noop(const StagePlanInputs& in) const {
    (void)in;
    return false;
  }
};

class OpPipeline {
 public:
  explicit OpPipeline(McrDl* ctx);
  ~OpPipeline();
  OpPipeline(const OpPipeline&) = delete;
  OpPipeline& operator=(const OpPipeline&) = delete;

  // Runs `req` through all stages on behalf of `rank`; `group` empty = world.
  Work execute(int rank, const std::vector<int>& group, OpRequest req);

  // Stage names in request-path order.
  std::vector<std::string> stage_names() const;
  // The stages a fast-path dispatch of `op` would actually run under the
  // current configuration (plan introspection for tests and tools).
  std::vector<std::string> active_stage_names(OpType op);
  // Insert a custom stage relative to an existing one (by name); throws
  // InvalidArgument if no stage has that name. Setup-time API: calls in
  // flight keep the plan they started with, so stages must be in place
  // before operations start flowing.
  void insert_before(const std::string& name, std::unique_ptr<OpStage> stage);
  void insert_after(const std::string& name, std::unique_ptr<OpStage> stage);

  // Total OpCall slots the dispatch arena has ever created (diagnostic: a
  // steady-state workload holds this constant after warm-up).
  std::size_t arena_slots() const;

 private:
  friend class OpNext;

  // The full compiled plan set for one config fingerprint. Immutable once
  // published; superseded tables are retired (not freed) until the pipeline
  // dies, so a plan pointer held by an in-flight call can never dangle.
  struct PlanTable {
    std::uint64_t config_version = 0;
    StagePlan full;                // every stage, no skips (slow path)
    std::vector<StagePlan> plans;  // [op * kMaskCount + mask]
  };
  class ArenaLease;
  struct RankPool {
    std::vector<std::unique_ptr<OpCall>> free;
    std::uint64_t created = 0;
  };

  static constexpr std::size_t kOpCount = static_cast<std::size_t>(OpType::Barrier) + 1;
  static constexpr unsigned kMaskOverhead = 1u << 0;
  static constexpr unsigned kMaskFusion = 1u << 1;
  static constexpr unsigned kMaskCompression = 1u << 2;
  static constexpr unsigned kMaskRecovery = 1u << 3;
  static constexpr unsigned kMaskColl = 1u << 4;
  static constexpr std::size_t kMaskCount = 1u << 5;

  Work invoke(std::size_t pos, OpCall& call);
  std::size_t index_of(const std::string& name) const;
  void rebuild_stage_histograms();

  // Cheap per-dispatch reads of the dynamic config toggles.
  unsigned config_mask() const;
  std::uint64_t config_version() const;
  // The current plan table, recompiling first if the config version moved.
  const PlanTable* plan_table();
  const PlanTable* recompile_plans(std::uint64_t version);

  OpCall* arena_acquire(int rank);
  void arena_release(int rank, OpCall* call);

  McrDl* ctx_;
  std::vector<std::unique_ptr<OpStage>> stages_;
  // `pipeline_stage_us{stage=...}` histogram per stage, parallel to stages_;
  // resolved eagerly at construction/insert time (registry references are
  // stable) so the per-invocation read is a vector index.
  std::vector<obs::Histogram*> stage_hist_;

  // Current plan table; plan_history_ keeps superseded tables alive for
  // in-flight calls.
  const PlanTable* plans_ = nullptr;
  std::vector<std::unique_ptr<const PlanTable>> plan_history_;

  // Per-rank OpCall recycling pools, sized once at construction. A rank's
  // pool is touched only by that rank's actor (reentrant dispatch nests in
  // the same actor). Ranks outside [0, pool_count_) — impossible in a fixed
  // world, conceivable under exotic elastic configs — dispatch with an
  // unpooled heap OpCall instead.
  std::unique_ptr<RankPool[]> pools_;
  std::size_t pool_count_ = 0;
};

}  // namespace mcrdl
