#include "src/core/op_pipeline.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/core/context.h"
#include "src/core/emulation.h"
#include "src/fault/recovery.h"
#include "src/tune/online_tuner.h"

namespace mcrdl {

namespace {

constexpr const char* kStageNames[kPipelineStages] = {
    "overhead", "resolve", "fusion", "compression", "finish", "recover", "coll", "route", "issue"};

// What only the online tuner and the logger need at completion.
struct FinishDetail {
  tune::OnlineTuner* tuner = nullptr;
  OpType op = OpType::Barrier;
  int world = 0;
  std::size_t bytes = 0;
  std::string backend;
  CommLogger* logger = nullptr;
  CommRecord rec;
};

// The finish stage's completion closure.
struct FinishRecord {
  Work w;
  obs::Histogram* latency = nullptr;
  std::unique_ptr<FinishDetail> detail;

  void operator()() {
    const SimTime start = w->exec_start >= 0.0 ? w->exec_start : w->posted_at;
    const SimTime end = w->complete_time();
    if (latency != nullptr) latency->observe(end - start);
    if (detail == nullptr) return;
    FinishDetail& d = *detail;
    if (d.tuner != nullptr) d.tuner->observe(d.op, d.world, d.bytes, d.backend, end - start);
    if (d.logger != nullptr) {
      d.rec.end = end;
      // Bill only the execution window when the backend reported one, so
      // compute-overlapped queueing time does not count as communication.
      if (w->exec_start >= 0.0) d.rec.start = w->exec_start;
      d.logger->record(std::move(d.rec));
    }
  }
};
static_assert(sizeof(FinishRecord) <= InlineFn::kCapacity,
              "the common finish record must fit the completion callback's inline buffer");

// Collectives whose buffer layout is a function of the communicator size.
// Their outputs were sized for the old world, so a replay on a smaller group
// cannot produce what the caller allocated for — the loss is unrecoverable
// at this layer and surfaces as RankLostError.
bool shape_coupled(OpType op) {
  switch (op) {
    case OpType::AllGather:
    case OpType::AllGatherV:
    case OpType::Gather:
    case OpType::GatherV:
    case OpType::Scatter:
    case OpType::ScatterV:
    case OpType::ReduceScatter:
    case OpType::AllToAllSingle:
    case OpType::AllToAll:
    case OpType::AllToAllV:
      return true;
    default:
      return false;
  }
}

// Remaps a call issued under the original membership onto the survivors of
// the current recovery epoch, and re-resolves its backend for the shrunk
// world.
void remap(OpCall& c, fault::RecoveryManager& rec, const std::vector<int>& original_group,
           int original_root, int original_peer) {
  std::vector<int> members = original_group;
  if (members.empty()) {
    const int world = c.ctx->cluster()->world_size();
    members.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) members.push_back(r);
  }
  const std::vector<int> shrunk = rec.shrink_group(members);
  if (shrunk.empty()) {
    throw RankLostError(std::string("cannot replay ") + op_name(c.req.op) +
                        ": every member of its communicator was permanently lost");
  }
  if (shrunk.size() != members.size() && shape_coupled(c.req.op)) {
    throw RankLostError(std::string(op_name(c.req.op)) +
                        " buffers are laid out for the pre-loss communicator size; not "
                        "replayable across a shrink — reshard and reissue");
  }
  const auto remap_index = [&](int index, const char* role) {
    MCRDL_CHECK(index >= 0 && index < static_cast<int>(members.size()))
        << role << " index " << index << " out of range for group of " << members.size();
    const int global = members[static_cast<std::size_t>(index)];
    const auto it = std::find(shrunk.begin(), shrunk.end(), global);
    if (it == shrunk.end()) {
      throw RankLostError(std::string(role) + " rank " + std::to_string(global) + " of " +
                          op_name(c.req.op) + " was permanently lost; unrecoverable");
    }
    return static_cast<int>(it - shrunk.begin());
  };
  switch (c.req.op) {
    case OpType::Broadcast:
    case OpType::Reduce:
    case OpType::Gather:
    case OpType::GatherV:
    case OpType::Scatter:
    case OpType::ScatterV:
      c.req.root = remap_index(original_root, "root");
      break;
    case OpType::Send:
    case OpType::Recv:
      c.req.peer = remap_index(original_peer, "peer");
      break;
    default:
      break;
  }
  c.group = shrunk;
  // A composite keeps its algorithm across the replay (stable choice, like
  // a concrete backend string would be) and re-derives its subgroups from
  // the shrunk membership at launch — nothing to re-resolve here.
  if (c.is_composite) return;
  // Re-resolve for the shrunk world: tuning tables are keyed on message
  // size *and* world size, so "auto" may legitimately pick a different
  // backend after the shrink.
  if (c.req.op == OpType::Send || c.req.op == OpType::Recv) {
    c.requested = c.ctx->backend_id(c.req.backend);
  } else {
    c.requested = c.ctx->resolve(c.req.backend, c.req.op, c.bytes, c.world_size(), c.rank);
  }
}

}  // namespace

int OpCall::world_size() const {
  return group.empty() ? ctx->cluster()->world_size() : static_cast<int>(group.size());
}

Comm* OpCall::comm_for(Backend* b) const {
  return group.empty() ? b->world() : b->group(group);
}

const std::string& OpCall::requested_name() const {
  return is_composite ? composite.text : ctx->get_backends()[requested];
}

const std::string& OpCall::completed_name() const {
  return is_composite ? composite.text : ctx->get_backends()[completed_on];
}

void OpCall::recycle() {
  ctx = nullptr;
  rank = 0;
  group.clear();
  req.recycle();
  bytes = 0;
  requested = kNoBackend;
  admit_fusion = false;
  admit_compression = false;
  attempt_backend = nullptr;
  attempts = 1;
  rerouted = false;
  fault.clear();
  completed_on = kNoBackend;
  recovered = false;
  fused = false;
  compressed = false;
  is_composite = false;
  composite.algo = coll::CompositeAlgo::Hier;
  composite.intra.clear();
  composite.inter.clear();
  composite.text.clear();
  stage_child_us.fill(0.0);
  timed_stage = -1;
}

Work OpNext::operator()() const { return pipeline_->run_hooks(stage_, hook_, *call_); }

// RAII lease of an arena OpCall: releases (recycles) the slot on every exit
// path, including exceptions unwinding out of the stages. Safe because
// nothing keeps a reference to the OpCall past execute() — completion
// closures copy the fields they need.
class OpPipeline::ArenaLease {
 public:
  ArenaLease(OpPipeline* pipeline, int rank)
      : pipeline_(pipeline), rank_(rank), call_(pipeline->arena_acquire(rank)) {}
  ~ArenaLease() { pipeline_->arena_release(rank_, call_); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;
  OpCall& call() { return *call_; }

 private:
  OpPipeline* pipeline_;
  int rank_;
  OpCall* call_;
};

OpPipeline::OpPipeline(McrDl* ctx) : ctx_(ctx) {
  MCRDL_REQUIRE(ctx_ != nullptr, "OpPipeline needs a context");
  for (std::size_t s = 0; s < kPipelineStages; ++s) {
    stage_hist_[s] =
        &ctx_->cluster()->metrics().histogram("pipeline_stage_us", {{"stage", kStageNames[s]}});
  }
  pool_count_ = static_cast<std::size_t>(std::max(0, ctx_->cluster()->world_size()));
  pools_ = std::make_unique<RankPool[]>(pool_count_);
}

OpPipeline::~OpPipeline() = default;

Work OpPipeline::execute(int rank, const std::vector<int>& group, OpRequest&& req) {
  ArenaLease lease(this, rank);
  OpCall& call = lease.call();
  call.ctx = ctx_;
  call.rank = rank;
  // Copy-assign the group into the recycled slot so its capacity is reused.
  // The request moves in: its containers arrive filled by the caller, so
  // moving allocates nothing either.
  call.group = group;
  call.req = std::move(req);
  return next<kOverhead>(call);
}

// ---------------------------------------------------------------------------
// Stage sequencing
// ---------------------------------------------------------------------------

constexpr OpPipeline::StageFn OpPipeline::stage_fn(std::size_t s) {
  constexpr StageFn fns[kPipelineStages] = {
      &OpPipeline::overhead, &OpPipeline::resolve, &OpPipeline::fusion,
      &OpPipeline::compression, &OpPipeline::finish, &OpPipeline::recover,
      &OpPipeline::coll, &OpPipeline::route, &OpPipeline::issue};
  return fns[s];
}

template <std::size_t S>
bool OpPipeline::bypassed(const OpCall& c) const {
  if constexpr (S == kOverhead) {
    return !(ctx_->options().per_call_overhead_us > 0.0);
  } else if constexpr (S == kFusion) {
    return !ctx_->fusion().config().enabled || !ctx_->fusion().admits(c.req.op);
  } else if constexpr (S == kCompression) {
    return !ctx_->compression().config().enabled || !CompressionLayer::op_supported(c.req.op);
  } else if constexpr (S == kRecover) {
    return !ctx_->cluster()->faults().recovery().armed();
  } else if constexpr (S == kColl) {
    return !ctx_->coll_enabled();
  } else {
    return false;
  }
}

template <std::size_t S>
Work OpPipeline::next(OpCall& c) {
  if constexpr (S != kIssue) {
    if (hooks_[S].empty() && bypassed<S>(c)) {
      Work w = next<S + 1>(c);
      // Exactly what running the stage would have measured, once per
      // completed op.
      stage_hist_[S]->observe(0.0);
      return w;
    }
  }
  return timed<S>(c);
}

// Each timed stage records its *exclusive* virtual time: the sequence is
// linear (a stage only enters the stage after it, possibly several times for
// retries), so exclusive time is this entry's total minus the time its
// downstream entries accumulated into stage_child_us[S]. Reading now() is
// side-effect-free, so the instrumentation cannot move a virtual-time stamp
// — the golden-trace tests pin this.
template <std::size_t S>
Work OpPipeline::timed(OpCall& c) {
  sim::Scheduler& sched = ctx_->cluster()->scheduler();
  const SimTime start = sched.now();
  const double child_before = c.stage_child_us[S];
  const int parent = c.timed_stage;
  c.timed_stage = static_cast<int>(S);
  const auto settle = [&]() {
    c.timed_stage = parent;
    const double total = sched.now() - start;
    if (parent >= 0) c.stage_child_us[static_cast<std::size_t>(parent)] += total;
    return total - (c.stage_child_us[S] - child_before);
  };
  try {
    constexpr StageFn fn = stage_fn(S);
    Work w = hooks_[S].empty() ? (this->*fn)(c) : run_hooks(S, 0, c);
    stage_hist_[S]->observe(settle());
    return w;
  } catch (...) {
    // Failed attempts still credit their time to the parent so the routing
    // stage's exclusive time stays exact; only completed entries are
    // observed in the histogram.
    settle();
    throw;
  }
}

Work OpPipeline::run_hooks(std::size_t s, std::size_t hook, OpCall& c) {
  const std::vector<std::unique_ptr<OpStage>>& hooks = hooks_[s];
  if (hook < hooks.size()) return hooks[hook]->run(c, OpNext(this, &c, s, hook + 1));
  return (this->*stage_fn(s))(c);
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

// overhead: per-call host-side cost (paper C3 / Figure 7).
Work OpPipeline::overhead(OpCall& c) {
  // Nested sub-ops of a composite pay no host overhead of their own: the
  // caller made ONE MCR-DL call, billed on the parent's pass through here.
  if (!c.req.nested && ctx_->options().per_call_overhead_us > 0.0) {
    ctx_->cluster()->scheduler().sleep_for(ctx_->options().per_call_overhead_us);
  }
  return next<kResolve>(c);
}

// resolve: backend string -> BackendId, "auto" via the tuning table.
Work OpPipeline::resolve(OpCall& c) {
  c.bytes = c.req.payload_bytes();
  if (c.req.op == OpType::Send || c.req.op == OpType::Recv) {
    // "auto" is collective-only; p2p resolves the literal name.
    c.requested = ctx_->backend_id(c.req.backend);
  } else {
    // With composites enabled the choice may be an algorithm string rather
    // than a backend — either passed explicitly or picked by the tuner from
    // its composite arms. `requested` stays kNoBackend; the coll stage
    // launches it. Nested sub-ops always name concrete backends (no
    // composite recursion).
    coll::CompositeSpec* composite =
        ctx_->coll_enabled() && !c.req.nested ? &c.composite : nullptr;
    c.requested =
        ctx_->resolve(c.req.backend, c.req.op, c.bytes, c.world_size(), c.rank, composite);
    c.is_composite = c.requested == kNoBackend;
  }
  return next<kFusion>(c);
}

// fusion: bucketing admission for small collectives (paper V-C). Admission
// is decided once, before routing: eligibility depends only on the fusion
// config, the op and the tensor, never on which backend an attempt lands on.
Work OpPipeline::fusion(OpCall& c) {
  // Composites and their nested sub-ops never bucket: a fused sub-op would
  // complete only at the next flush, stalling the chain's phase progression.
  c.admit_fusion =
      !c.req.nested && !c.is_composite && ctx_->fusion().eligible(c.req.op, c.req.tensor);
  return next<kCompression>(c);
}

// compression: admission by op/dtype/size (paper V-E).
Work OpPipeline::compression(OpCall& c) {
  const Tensor& payload = c.req.op == OpType::Broadcast ? c.req.tensor : c.req.input;
  // Nested sub-ops carry slices of an uncompressed parent payload; lossy
  // per-leg compression would compound across the composite's levels.
  c.admit_compression =
      !c.req.nested && !c.is_composite && ctx_->compression().eligible(c.req.op, payload);
  return next<kFinish>(c);
}

// finish: CommLogger record attached on completion (paper V-D). Runs before
// recover and route so that, on the unwinding completion path, it sees the
// final outcome of the whole retry/failover loop: the backend the op
// completed on, total attempts, and the last injected fault.
Work OpPipeline::finish(OpCall& c) {
  Work w = next<kRecover>(c);
  // Always-on metrics, independent of the (opt-in) CommLogger: one
  // completion count per op/backend pair, plus an end-to-end latency
  // histogram billed with the logger's convention (execution window when the
  // backend reported one, posted-at otherwise), through the per-(backend, op)
  // handle cache.
  const FinishHandles& h = finish_handles(c);
  h.ops->inc();
  obs::Histogram* latency = h.latency;
  // Bucketed ops bill latency differently: the fusion layer observes every
  // entry's end-to-end latency in ONE batch-level closure at flush
  // completion (src/core/fusion.cc), so the common bucketed dispatch — no
  // tuner (always skipped for fused ops) and no logger — registers no
  // per-op completion closure at all. With the logger enabled a closure is
  // still built for the trace record, but its latency handle is nulled so
  // the histogram is never fed twice.
  if (c.fused) {
    if (!ctx_->logger().enabled()) return w;
    latency = nullptr;
  }
  // Online-tuner feedback: every plain collective completion — whatever
  // backend string the caller passed — teaches the tuner about the backend
  // it actually completed on. Fused/compressed completions are skipped
  // (their latency reflects the optimisation, not the backend), as is p2p
  // ("auto" is collective-only). Pure observation: nothing moves in virtual
  // time, and with the tuner disabled this block is dead code.
  tune::OnlineTuner* tuner = ctx_->online_tuner();
  // Nested sub-ops of a composite are also skipped: the parent composite's
  // completion is the one that teaches the tuner about its arm — crediting
  // each leg separately would double-count the composite's latency.
  if (tuner != nullptr && (c.req.op == OpType::Send || c.req.op == OpType::Recv || c.fused ||
                           c.compressed || c.req.nested)) {
    tuner = nullptr;
  }
  CommLogger* logger = ctx_->logger().enabled() ? &ctx_->logger() : nullptr;
  if (tuner == nullptr && logger == nullptr && w->test()) {
    // Already complete (synchronous issue): observe inline instead of
    // allocating a completion closure that would fire immediately.
    latency->observe(w->complete_time() - (w->exec_start >= 0.0 ? w->exec_start : w->posted_at));
    return w;
  }
  // One merged completion callback instead of three. Without a tuner or
  // logger it carries just the Work and the latency handle, which fit the
  // callback's inline buffer; only the optional feedback and trace record go
  // on the heap. Capturing the shared handle keeps it alive until
  // completion; the completion ownership rule (src/common/completion.h)
  // frees a never-firing Work.
  FinishRecord done;
  done.w = w;
  done.latency = latency;
  if (tuner != nullptr || logger != nullptr) {
    done.detail = std::make_unique<FinishDetail>();
    FinishDetail& d = *done.detail;
    d.tuner = tuner;
    if (tuner != nullptr) {
      d.op = c.req.op;
      d.world = c.world_size();
      d.bytes = c.bytes;
      d.backend = c.completed_name();
    }
    d.logger = logger;
    if (logger != nullptr) {
      CommRecord& rec = d.rec;
      rec.rank = c.rank;
      rec.op = c.req.op;
      rec.backend = c.completed_name();
      rec.bytes = c.bytes;
      rec.start = w->posted_at;
      rec.fused = c.fused;
      rec.compressed = c.compressed;
      rec.attempts = c.attempts;
      rec.rerouted = c.rerouted;
      // Always recorded — also when the op ran where it was asked to — so
      // traces never carry stale routing info.
      rec.requested_backend = c.requested_name();
      rec.fault = c.fault;
      rec.epoch = c.req.epoch;
      rec.recovered = c.recovered;
    }
  }
  w->on_complete(std::move(done));
  return w;
}

void OpPipeline::bind_backends(std::size_t count) {
  finish_handles_.assign(count * kOpTypeCount, FinishHandles{});
}

// Registry references are stable for its lifetime, so handles are resolved
// once per (backend, op) pair instead of building label maps — four
// small-map node allocations — per dispatch. They are created on first use,
// so the metrics snapshot lists only pairs that completed an op.
const OpPipeline::FinishHandles& OpPipeline::finish_handles(const OpCall& c) {
  const auto op = static_cast<std::size_t>(c.req.op);
  FinishHandles* h = nullptr;
  if (c.is_composite) {
    h = &composite_handles_[{c.composite.text, static_cast<int>(op)}];
  } else {
    h = &finish_handles_[c.completed_on * kOpTypeCount + op];
  }
  if (h->ops == nullptr) {
    obs::MetricsRegistry& metrics = ctx_->cluster()->metrics();
    const obs::Labels labels{{"backend", c.completed_name()}, {"op", op_name(c.req.op)}};
    *h = FinishHandles{&metrics.counter("pipeline_ops", labels),
                       &metrics.histogram("op_latency_us", labels)};
  }
  return *h;
}

// recover: elastic rank-loss recovery (src/fault/recovery.h). Runs between
// finish and route so that, on the unwinding completion path, the finish
// stage sees the final outcome of the replay loop. Each pass stamps the
// request with the current recovery epoch and runs the tail; when a
// permanent rank loss surfaces as RankLostError, the call parks until the
// epoch advances (quiesce -> shrink has completed), remaps its
// communicator/root/peer onto the survivors and replays. With recovery
// disarmed the stage is bypassed — no scheduler interaction, no allocation
// — so fault-free runs stay byte-identical.
Work OpPipeline::recover(OpCall& c) {
  fault::FaultInjector& faults = ctx_->cluster()->faults();
  fault::RecoveryManager& rec = faults.recovery();
  if (!rec.armed()) return next<kColl>(c);
  // Nested sub-ops keep the epoch their parent composite stamped: a loss
  // mid-chain must fail the whole chain (whose parent frame — or recover
  // closure — replays the composite), not silently replay one leg on a
  // communicator the other legs no longer match.
  if (c.req.nested) return next<kColl>(c);
  // The caller's group/root/peer index the membership it was issued under;
  // every replay remaps them from these originals onto the survivors, so
  // repeated losses compose (epoch 2 remaps from the epoch-0 view, not the
  // epoch-1 one).
  const std::vector<int> original_group = c.group;
  const int original_root = c.req.root;
  const int original_peer = c.req.peer;
  int prior_attempts = 0;
  for (;;) {
    const std::uint64_t epoch = rec.epoch();
    c.req.epoch = epoch;
    if (epoch > 0) remap(c, rec, original_group, original_root, original_peer);
    try {
      Work w = next<kColl>(c);
      c.attempts += prior_attempts;
      if (c.recovered) {
        rec.note_recovered();
        ctx_->cluster()
            ->metrics()
            .counter("ops_recovered", {{"backend", c.completed_name()}})
            .inc();
      }
      return w;
    } catch (const RankLostError&) {
      // The casualty itself never replays: let the loss surface to the
      // workload so the dying rank's actor unwinds.
      if (faults.rank_lost(c.rank)) throw;
      prior_attempts += c.attempts;
      c.recovered = true;
      c.fault = "rank_lost";
      // Park until the cluster moved past the epoch this attempt ran under;
      // replaying at the same epoch would be doomed immediately (the loss
      // event may not even have fired yet — the join was doomed from the
      // fault plan).
      rec.wait_epoch_past(epoch);
    }
  }
}

// coll: composite collective launch (src/coll/, DESIGN.md §15). Terminal for
// composite calls: the resolve stage parsed the algorithm string, this stage
// hands the call to coll::launch, which chains nested sub-operations back
// through the full pipeline (each leg re-enters at the top with req.nested
// set, so fault routing, metrics and traces see every leg individually).
// Plain calls pass straight through to route/issue.
Work OpPipeline::coll(OpCall& c) {
  if (!c.is_composite) return next<kRoute>(c);
  // Stale-epoch guard, mirroring the issue stage: a composite stamped before
  // a shrink would chain sub-ops against torn-down communicators. Rejecting
  // here bounces the whole composite back to the recover stage.
  fault::RecoveryManager& recovery = ctx_->cluster()->faults().recovery();
  if (recovery.armed() && c.req.epoch != recovery.epoch()) {
    recovery.note_stale_rejection();
    throw RankLostError("stale-epoch composite rejected: " + c.composite.text +
                        " was stamped epoch " + std::to_string(c.req.epoch) +
                        " but the cluster is at epoch " + std::to_string(recovery.epoch()) +
                        " after rank loss; replay on the shrunk communicator");
  }
  Work w = coll::launch(ctx_->coll_launch(), c.composite, c.rank, c.group, c.req);
  // Synchronous composites drive their chain to completion right here, so a
  // rank loss surfaces as RankLostError inside this pipeline frame and the
  // recover stage above parks, remaps and replays the whole composite.
  if (!c.req.async_op) w->wait();
  return w;
}

// route: fault-aware retry/backoff/failover (src/fault/).
Work OpPipeline::route(OpCall& c) {
  fault::FailoverRouter* router = ctx_->failover();
  if (router == nullptr) {
    // Fault subsystem disabled: issue exactly once on the resolved backend.
    c.attempt_backend = ctx_->backend(c.requested);
    Work w = next<kIssue>(c);
    c.completed_on = c.requested;
    return w;
  }

  // Preference order: the resolved backend first, then init() order. All
  // ranks derive the identical order, and health is per-rank, driven only by
  // the fault verdicts this rank has observed — which are identical across
  // ranks at the same logical op (one stored verdict per rendezvous). Every
  // rank therefore walks the same retry/re-route sequence for the same op,
  // at its own pace, and collectives stay aligned across retries and
  // failover even with stragglers in flight.
  const std::vector<std::string>& order = ctx_->get_backends();
  const std::string& requested = c.requested_name();

  obs::MetricsRegistry& metrics = ctx_->cluster()->metrics();
  // Age the preferred backend's breaker toward its half-open probe before
  // selecting, so the op that crosses the probe threshold becomes the probe
  // itself. Collectives only: every rank issues the same collective
  // sequence, so the skip counts — and the resulting probe op — line up
  // across ranks, which rank-asymmetric p2p traffic would break.
  if (c.req.op != OpType::Send && c.req.op != OpType::Recv) {
    router->age_breaker(requested, c.rank);
  }

  std::string current = router->select(requested, order, c.rank);
  if (current != requested) {
    c.rerouted = true;
    c.fault = "unavailable";
    router->report().rerouted++;
    router->report().by_backend[requested].rerouted++;
    metrics.counter("failover_reroutes", {{"backend", requested}}).inc();
  }

  c.attempts = 0;
  int attempts_on_current = 0;
  for (;;) {
    ++attempts_on_current;
    ++c.attempts;
    router->report().attempted++;
    const BackendId attempt = ctx_->backend_id(current);
    c.attempt_backend = ctx_->backend(attempt);
    try {
      Work w = next<kIssue>(c);
      router->record_success(current, c.rank);
      router->report().succeeded++;
      c.completed_on = attempt;
      return w;
    } catch (const TransientFault& tf) {
      c.fault = "transient";
      router->record_failure(current, c.rank);
      if (attempts_on_current < router->retry().max_attempts &&
          router->healthy(current, c.rank)) {
        // Rank-keyed overload decorrelates retry storms when jitter is
        // enabled; with jitter_seed == 0 (default) it is the plain schedule.
        const SimTime backoff = router->retry().backoff(attempts_on_current, c.rank);
        router->report().retried++;
        router->report().backoff_time_us += backoff;
        metrics.counter("failover_retries", {{"backend", current}}).inc();
        ctx_->cluster()->scheduler().sleep_for(backoff);
        continue;
      }
      // Retries exhausted (or breaker opened mid-retry): move on if we can,
      // otherwise surface the original fault as the operation's failure.
      std::string failed_backend = current;
      try {
        current = router->next_healthy(current, requested, order, c.rank);
      } catch (const BackendUnavailable&) {
        router->report().failed++;
        router->report().by_backend[failed_backend].failed++;
        metrics.counter("failover_failures", {{"backend", failed_backend}}).inc();
        throw tf;
      }
      c.rerouted = true;
      router->report().rerouted++;
      router->report().by_backend[failed_backend].rerouted++;
      metrics.counter("failover_reroutes", {{"backend", failed_backend}}).inc();
      attempts_on_current = 0;
    } catch (const BackendUnavailable&) {
      c.fault = "unavailable";
      router->record_failure(current, c.rank);
      std::string next_backend;
      try {
        next_backend = router->next_healthy(current, requested, order, c.rank);
      } catch (const BackendUnavailable&) {
        router->report().failed++;
        router->report().by_backend[current].failed++;
        metrics.counter("failover_failures", {{"backend", current}}).inc();
        throw;
      }
      c.rerouted = true;
      router->report().rerouted++;
      router->report().by_backend[current].rerouted++;
      metrics.counter("failover_reroutes", {{"backend", current}}).inc();
      current = next_backend;
      attempts_on_current = 0;
    } catch (const TimeoutError&) {
      // A watchdog timeout means peers are wedged mid-collective; re-routing
      // one rank alone cannot realign the group, so it is always fatal.
      router->record_failure(current, c.rank);
      router->report().failed++;
      router->report().by_backend[current].failed++;
      metrics.counter("failover_failures", {{"backend", current}}).inc();
      throw;
    }
  }
}

// issue: the terminal stage — hand the request to a backend (paper V-B).
// Runs once per routing attempt. The fused/compressed admissions were fixed
// upstream; whether the op runs natively or through an emulation recipe is
// decided here because it depends on the current attempt's backend profile.
Work OpPipeline::issue(OpCall& c) {
  // Stale-epoch guard: after an elastic shrink every live communicator was
  // rebuilt over the survivors. An op still stamped with an older epoch
  // would rendezvous against torn-down state and deadlock the new groups —
  // reject it here so the recover stage replays it instead.
  fault::RecoveryManager& recovery = ctx_->cluster()->faults().recovery();
  if (recovery.armed() && c.req.epoch != recovery.epoch()) {
    recovery.note_stale_rejection();
    throw RankLostError("stale-epoch operation rejected: " + std::string(op_name(c.req.op)) +
                        " was stamped epoch " + std::to_string(c.req.epoch) +
                        " but the cluster is at epoch " + std::to_string(recovery.epoch()) +
                        " after rank loss; replay on the shrunk communicator");
  }
  Backend* b = c.attempt_backend;
  Comm* comm = c.comm_for(b);
  c.fused = false;
  c.compressed = false;
  if (c.admit_fusion) {
    Work w = ctx_->fusion().submit(comm, c.rank, c.req.op, c.req.tensor, c.req.rop, c.req.root);
    if (!c.req.async_op) w->wait();
    c.fused = true;
    return w;
  }
  if (c.admit_compression) {
    c.compressed = true;
    switch (c.req.op) {
      case OpType::Broadcast:
        return ctx_->compression().broadcast(*comm, c.rank, c.req.tensor, c.req.root,
                                             c.req.async_op);
      case OpType::AllGather:
        return ctx_->compression().all_gather(*comm, c.rank, c.req.output, c.req.input,
                                              c.req.async_op);
      case OpType::AllToAllSingle:
        return ctx_->compression().all_to_all_single(*comm, c.rank, c.req.output, c.req.input,
                                                     c.req.async_op);
      default:
        MCRDL_CHECK(false) << "compression admitted unsupported op " << op_name(c.req.op);
    }
  }
  if (b->profile().is_native(c.req.op)) return comm->issue(c.rank, c.req);
  return emulation::issue(*comm, c.rank, c.req);
}

// ---------------------------------------------------------------------------
// Dispatch arena
// ---------------------------------------------------------------------------

OpCall* OpPipeline::arena_acquire(int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= pool_count_) return new OpCall();
  RankPool& pool = pools_[static_cast<std::size_t>(rank)];
  if (pool.free.empty()) {
    ++pool.created;
    return new OpCall();
  }
  OpCall* call = pool.free.back().release();
  pool.free.pop_back();
  return call;
}

void OpPipeline::arena_release(int rank, OpCall* call) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= pool_count_) {
    delete call;
    return;
  }
  call->recycle();
  pools_[static_cast<std::size_t>(rank)].free.emplace_back(call);
}

std::size_t OpPipeline::arena_slots() const {
  std::size_t total = 0;
  for (std::size_t r = 0; r < pool_count_; ++r) {
    total += pools_[r].created;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Stage names and hooks
// ---------------------------------------------------------------------------

std::vector<std::string> OpPipeline::stage_names() const {
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kPipelineStages; ++s) {
    for (const auto& hook : hooks_[s]) names.emplace_back(hook->name());
    names.emplace_back(kStageNames[s]);
  }
  return names;
}

void OpPipeline::insert_before(const std::string& name, std::unique_ptr<OpStage> stage) {
  MCRDL_REQUIRE(stage != nullptr, "insert_before needs a stage");
  for (std::size_t s = 0; s < kPipelineStages; ++s) {
    if (name == kStageNames[s]) {
      hooks_[s].push_back(std::move(stage));
      return;
    }
  }
  throw InvalidArgument("OpPipeline has no built-in stage named '" + name + "'");
}

}  // namespace mcrdl
