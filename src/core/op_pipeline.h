// The operation pipeline behind the MCR-DL facade.
//
// Every Listing-1 call is packed into an OpRequest (src/backends/op_request.h)
// and executed by the OpPipeline: one fixed sequence of nine stages, each a
// plain member function that calls the next one directly. A stage may adjust
// the in-flight OpCall, run the rest of the sequence zero or more times (the
// recover and route stages loop over the tail per replay/retry attempt), and
// post-process the returned Work. The request path runs through the stages
// in order; the completion path unwinds in reverse, so the finish stage —
// though it runs before routing — observes the final outcome of the whole
// retry loop.
//
// Stage order (OpPipeline::stage_names()):
//
//   overhead     per-call host overhead (paper C3)
//   resolve      backend string -> BackendId; "auto" -> tuning table (V-F)
//   fusion       bucketing admission for small collectives (V-C)
//   compression  compression admission by op/dtype/size (V-E)
//   finish       attaches the CommLogger record on completion (V-D)
//   recover      elastic rank-loss recovery: epoch stamp + replay (src/fault/)
//   coll         composite collective launch (src/coll/)
//   route        fault-aware retry/backoff/failover (src/fault/)
//   issue        terminal: fused / compressed / native / emulated issue (V-B)
//
// Each stage records its exclusive virtual time into its
// `pipeline_stage_us{stage=...}` histogram once per completed op. A stage
// whose feature is disabled (overhead 0, fusion or compression off or not
// admitting the op, recovery disarmed, composites off) is bypassed: it
// records a 0.0 observation — what running it would have measured — without
// reading the clock, so every stage still counts every op. Histogram::observe
// takes the first bucket with one compare, so these and the zero-time
// stages' observations cost no binary search.
//
// Hooks. insert_before(name, stage) attaches an OpStage that runs right
// before the named built-in stage, on every op. Hooks get no histogram of
// their own: their virtual time is charged to the stage they precede. The
// list is empty in production; the benchmark's span probes use it.
//
// Hot path (DESIGN.md §14). Every op takes its OpCall from a per-rank arena
// (container capacity survives recycling, so steady-state dispatch
// allocates nothing) and moves its one OpRequest into it. Backends travel
// by BackendId (their index in McrDl::init() order): "auto" maps the tuning
// table's winner to its id with one scan of the initialised names (five at
// most), and the finish stage's metric handles are an array indexed by
// (id, op), so a plain collective builds no backend string and probes no
// string-keyed map. Names are used only for the logger record, the online
// tuner, the fault router and composite text. The golden-trace tests pin the resulting virtual time
// byte for byte.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/backends/backend.h"
#include "src/backends/op_request.h"
#include "src/backends/work.h"
#include "src/coll/spec.h"
#include "src/obs/metrics.h"

namespace mcrdl {

class Backend;
class Comm;
class McrDl;
class OpPipeline;

// Number of built-in pipeline stages.
inline constexpr std::size_t kPipelineStages = 9;

// The mutable state of one operation travelling through the pipeline.
struct OpCall {
  McrDl* ctx = nullptr;
  int rank = 0;                  // caller's global rank
  std::vector<int> group;        // empty = world communicator
  OpRequest req;

  // Filled by the resolve stage.
  std::size_t bytes = 0;         // payload size (tuning/logging convention)
  // Preferred backend after "auto" resolution; CommRecord.requested_backend.
  BackendId requested = kNoBackend;

  // Filled by the resolve stage when the choice is a composite algorithm
  // ("hier:...", "rsag..."): `requested` and `completed_on` stay kNoBackend
  // (composite.text names the algorithm), and the coll stage hands the call
  // to coll::launch instead of the route/issue tail.
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
  BackendId completed_on = kNoBackend;  // backend the op finally completed on

  // Maintained by the recover stage: true once the op was replayed on a
  // shrunk communicator after a rank loss (req.epoch carries the epoch).
  bool recovered = false;

  // Outcome of the current issue attempt (reset by the issue stage).
  bool fused = false;
  bool compressed = false;

  // Exclusive-time bookkeeping for the `pipeline_stage_us` histograms:
  // virtual time spent inside each stage's downstream stages, and the
  // innermost timed stage currently running (-1 before the first).
  std::array<double, kPipelineStages> stage_child_us{};
  int timed_stage = -1;

  // Size of the call's communicator (group or world).
  int world_size() const;
  // The group/world communicator of `b` for this call.
  Comm* comm_for(Backend* b) const;
  // Names of the requested and completing backends (a composite's text for
  // both), for records, metric labels, the online tuner and the
  // string-keyed fault router.
  const std::string& requested_name() const;
  const std::string& completed_name() const;

  // Keep-capacity reset for arena reuse: drops tensor/backend references and
  // clears strings/vectors without freeing their buffers.
  void recycle();
};

// Continuation a hook calls to run the rest of the pipeline: the remaining
// hooks of its stage, then the stage itself and everything after it. A plain
// (pipeline, call, stage, hook) tuple, so constructing one never allocates.
class OpNext {
 public:
  Work operator()() const;

 private:
  friend class OpPipeline;
  OpNext(OpPipeline* pipeline, OpCall* call, std::size_t stage, std::size_t hook)
      : pipeline_(pipeline), call_(call), stage_(stage), hook_(hook) {}

  OpPipeline* pipeline_;
  OpCall* call_;
  std::size_t stage_;
  std::size_t hook_;
};

// A hook run before one of the built-in stages (see insert_before).
class OpStage {
 public:
  virtual ~OpStage() = default;
  virtual const char* name() const = 0;
  virtual Work run(OpCall& call, const OpNext& next) = 0;
};

class OpPipeline {
 public:
  explicit OpPipeline(McrDl* ctx);
  ~OpPipeline();
  OpPipeline(const OpPipeline&) = delete;
  OpPipeline& operator=(const OpPipeline&) = delete;

  // Runs `req` through all stages on behalf of `rank`; `group` empty = world.
  Work execute(int rank, const std::vector<int>& group, OpRequest&& req);

  // Stage and hook names in request-path order.
  std::vector<std::string> stage_names() const;
  // Attaches `stage` as a hook run right before the built-in stage `name`
  // (after any hooks already there); throws InvalidArgument if no built-in
  // stage has that name. Setup-time API: insert before operations start
  // flowing.
  void insert_before(const std::string& name, std::unique_ptr<OpStage> stage);

  // Total OpCall slots the dispatch arena has ever created (diagnostic: a
  // steady-state workload holds this constant after warm-up).
  std::size_t arena_slots() const;

  // Called by McrDl::init: backend ids now name a new set of `count`
  // backends, so the per-id finish-stage handles start over.
  void bind_backends(std::size_t count);

 private:
  friend class OpNext;

  enum Stage : std::size_t {
    kOverhead,
    kResolve,
    kFusion,
    kCompression,
    kFinish,
    kRecover,
    kColl,
    kRoute,
    kIssue,
  };
  class ArenaLease;
  struct RankPool {
    std::vector<std::unique_ptr<OpCall>> free;
    std::uint64_t created = 0;
  };
  // Per-(backend, op) metric handles of the finish stage.
  struct FinishHandles {
    obs::Counter* ops = nullptr;
    obs::Histogram* latency = nullptr;
  };

  using StageFn = Work (OpPipeline::*)(OpCall&);
  // The member function of stage `s`.
  static constexpr StageFn stage_fn(std::size_t s);

  // Enters stage S: its hooks, then the stage itself, timed into its
  // histogram — or, when the stage is bypassed, straight to the next one.
  // Templates, so that a chain of bypassed stages inlines into one check
  // each and every entry compiles to direct calls.
  template <std::size_t S>
  Work next(OpCall& c);
  template <std::size_t S>
  Work timed(OpCall& c);
  // True when stage S provably neither moves virtual time nor changes the
  // call under the current configuration.
  template <std::size_t S>
  bool bypassed(const OpCall& c) const;
  // Runs hook `hook` of stage `s` (the stage itself once the hooks ran out).
  Work run_hooks(std::size_t s, std::size_t hook, OpCall& c);

  Work overhead(OpCall& c);
  Work resolve(OpCall& c);
  Work fusion(OpCall& c);
  Work compression(OpCall& c);
  Work finish(OpCall& c);
  Work recover(OpCall& c);
  Work coll(OpCall& c);
  Work route(OpCall& c);
  Work issue(OpCall& c);

  const FinishHandles& finish_handles(const OpCall& c);

  OpCall* arena_acquire(int rank);
  void arena_release(int rank, OpCall* call);

  McrDl* ctx_;
  // `pipeline_stage_us{stage=...}` per built-in stage, resolved once at
  // construction (registry references are stable).
  std::array<obs::Histogram*, kPipelineStages> stage_hist_{};
  std::array<std::vector<std::unique_ptr<OpStage>>, kPipelineStages> hooks_;
  // Resolved once per (backend, op) pair instead of building label maps per
  // dispatch: indexed by BackendId * kOpTypeCount + op for backends, and by
  // text only for composite algorithms.
  std::vector<FinishHandles> finish_handles_;
  std::map<std::pair<std::string, int>, FinishHandles> composite_handles_;

  // Per-rank OpCall recycling pools, sized once at construction. A rank's
  // pool is touched only by that rank's actor (reentrant dispatch nests in
  // the same actor). Ranks outside [0, pool_count_) — impossible in a fixed
  // world, conceivable under exotic elastic configs — dispatch with an
  // unpooled heap OpCall instead.
  std::unique_ptr<RankPool[]> pools_;
  std::size_t pool_count_ = 0;
};

}  // namespace mcrdl
