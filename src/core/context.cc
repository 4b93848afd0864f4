#include "src/core/context.h"

#include <utility>

#include "src/common/logging.h"
#include "src/core/op_pipeline.h"
#include "src/fault/recovery.h"

namespace mcrdl {

// ---------------------------------------------------------------------------
// McrDl
// ---------------------------------------------------------------------------

McrDl::McrDl(ClusterContext* cluster, McrDlOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  MCRDL_REQUIRE(cluster_ != nullptr, "McrDl needs a cluster context");
  fusion_ = std::make_unique<FusionManager>(cluster_, options_.fusion);
  compression_ = std::make_unique<CompressionLayer>(cluster_, options_.compression);
  logger_.set_enabled(options_.logging_enabled);
  pipeline_ = std::make_unique<OpPipeline>(this);
}

McrDl::~McrDl() = default;

void McrDl::init(const std::vector<std::string>& backend_names) {
  MCRDL_REQUIRE(!backend_names.empty(), "init needs at least one backend");
  MCRDL_CHECK(!initialized_) << "McrDl::init called twice";
  // Install the fault plan before any backend initialises so outages that
  // start at t=0 are visible to the very first operation.
  if (options_.fault.enabled) {
    // Warm spares are modelled as rank_loss at t=0: the spare ranks sit out
    // of the initial world (pre-start exclusions applied synchronously by
    // arm()) until a rank_rejoin spec admits them.
    fault::FaultPlan plan = options_.fault.plan;
    for (int r : options_.fault.spare_ranks) {
      MCRDL_REQUIRE(r >= 0 && r < cluster_->world_size(), "spare rank out of range");
      plan.specs.push_back(fault::FaultSpec::lose_rank(r, 0.0));
    }
    cluster_->faults().configure(plan);
    failover_ = std::make_unique<fault::FailoverRouter>(&cluster_->faults(), options_.fault.retry,
                                                        options_.fault.breaker_config(),
                                                        options_.fault.failover);
    // Surface breaker open/half-open/close events as metrics; the hook is
    // purely observational, so routing decisions are untouched.
    failover_->breaker().set_transition_hook(
        [cluster = cluster_](const std::string& backend, int rank, fault::BreakerState to) {
          (void)rank;  // per-backend cardinality; worlds are small and symmetric
          cluster->metrics()
              .counter("breaker_transitions",
                       {{"backend", backend}, {"to", fault::breaker_state_name(to)}})
              .inc();
        });
    // Arm elastic recovery (no-op when the plan has no rank_loss specs), then
    // bind the resilience report so recovery counters surface in it. Order
    // matters: arm() re-disarms first, which clears any previous binding.
    cluster_->faults().recovery().arm(cluster_->world_size());
    cluster_->faults().recovery().bind_report(&failover_->report());
    cluster_->faults().recovery().bind_metrics(&cluster_->metrics());
    // Recovery state (epochs, lost set, resilience counters) checkpoints
    // through the store so a restored run rejects stale-epoch ops exactly
    // like the run that saved it.
    auto& rec = cluster_->faults().recovery();
    checkpoint_.register_section(
        "recovery", [&rec] { return rec.save_state(); },
        [&rec](const std::string& body) { rec.restore_state(body); });
  }
  for (const auto& name : backend_names) {
    if (backends_.count(name) > 0) {
      throw InvalidArgument("backend '" + name + "' listed twice in init()");
    }
    auto b = make_backend(name, cluster_);
    b->init();
    backend_order_.push_back(name);
    backends_[name] = std::move(b);
  }
  // The online tuner becomes the resolution authority behind "auto"; the
  // static table (whenever it is installed) seeds its per-key incumbents.
  if (options_.online_tuning.enabled) {
    tuner_ = std::make_unique<tune::OnlineTuner>(options_.online_tuning, &cluster_->metrics());
    if (tuning_table_.has_value()) tuner_->seed_prior(*tuning_table_);
    // Learned arms/quarantines checkpoint alongside recovery state, so a
    // restored tuner resumes from its incumbents instead of re-exploring.
    tune::OnlineTuner* t = tuner_.get();
    checkpoint_.register_section(
        "tuner", [t] { return t->save_state(); },
        [t](const std::string& body) { t->restore_state(body); });
  }
  // Composite collectives (src/coll/): the chain scheduler plus the launch
  // seam that lets coll — which sits below core — post its sub-operations
  // through the full pipeline.
  if (options_.coll.enabled) {
    MCRDL_REQUIRE(options_.coll.chunks >= 1, "coll.chunks must be >= 1");
    overlap_ = std::make_unique<coll::OverlapScheduler>(&cluster_->scheduler(),
                                                        cluster_->world_size(),
                                                        options_.coll.overlap, options_.coll.chunks);
    if (options_.fault.enabled) {
      // Sub-ops of a chain stamped before a shrink/grow are cancelled by the
      // quiesce drain and never call back; the epoch source lets drive()
      // detect such stale chains, and both hooks poke blocked drivers awake
      // on every epoch bump so they re-examine their chains.
      auto& rec = cluster_->faults().recovery();
      coll::OverlapScheduler* ov = overlap_.get();
      overlap_->set_epoch_source([&rec] { return rec.epoch(); });
      coll_drain_hook_ = rec.register_drain([ov](const std::vector<int>&) { return ov->poke(); });
      coll_grow_hook_ = rec.register_grow("coll", [ov](const std::vector<int>&) { return ov->poke(); });
    }
    launch_ctx_.sched = &cluster_->scheduler();
    launch_ctx_.topo = &cluster_->topology();
    launch_ctx_.overlap = overlap_.get();
    launch_ctx_.dispatch = [this](int rank, const std::vector<int>& group, OpRequest req) {
      req.nested = true;
      return pipeline_->execute(rank, group, std::move(req));
    };
    launch_ctx_.redispatch = [this](int rank, const std::vector<int>& group, OpRequest req) {
      req.nested = false;
      req.async_op = false;
      return pipeline_->execute(rank, group, std::move(req));
    };
  }
  initialized_ = true;
}

void McrDl::finalize() {
  MCRDL_CHECK(initialized_) << "McrDl::finalize before init";
  // Recovery hooks capture the overlap scheduler; unhook before it dies (and
  // before the fault subsystem resets out from under the registrations).
  if (overlap_ != nullptr) {
    if (options_.fault.enabled) {
      auto& rec = cluster_->faults().recovery();
      rec.unregister_drain(coll_drain_hook_);
      rec.unregister_grow(coll_grow_hook_);
      coll_drain_hook_ = coll_grow_hook_ = 0;
    }
    launch_ctx_ = coll::LaunchContext{};
    overlap_.reset();
  }
  for (auto& [name, b] : backends_) b->finalize();
  backends_.clear();
  backend_order_.clear();
  // Checkpoint sections capture raw pointers into subsystems about to be
  // torn down; unregister before resetting either.
  checkpoint_.unregister_section("recovery");
  checkpoint_.unregister_section("tuner");
  if (options_.fault.enabled) {
    failover_.reset();
    cluster_->faults().reset();
  }
  tuner_.reset();
  initialized_ = false;
}

fault::RecoveryManager& McrDl::recovery() const { return cluster_->faults().recovery(); }

bool McrDl::has_backend(const std::string& name) const { return backends_.count(name) > 0; }

Backend* McrDl::backend(const std::string& name) const {
  auto it = backends_.find(name);
  if (it == backends_.end()) {
    throw InvalidArgument("backend '" + name + "' was not passed to McrDl::init");
  }
  return it->second.get();
}

Backend* McrDl::resolve(const std::string& name, OpType op, std::size_t bytes, int world,
                        int rank) const {
  return backend(resolve_string(name, op, bytes, world, rank));
}

std::string McrDl::resolve_string(const std::string& name, OpType op, std::size_t bytes,
                                  int world, int rank) const {
  MCRDL_CHECK(initialized_) << "MCR-DL is not initialised";
  if (name != "auto") return name;
  // Online tuner enabled: it owns "auto". It works from a cold start too, so
  // a static table is optional on this path.
  if (tuner_ != nullptr) {
    // With composites enabled the tuner's arm set grows beyond plain backend
    // names — allreduce only, the one op the composite algorithms implement.
    if (coll_enabled() && options_.coll.tuner_arms && op == OpType::AllReduce) {
      std::vector<std::string> arms = backend_order_;
      for (auto& arm : coll::composite_arms(backend_order_)) arms.push_back(std::move(arm));
      return tuner_->select(op, world, bytes, rank, arms);
    }
    return tuner_->select(op, world, bytes, rank, backend_order_);
  }
  if (!tuning_table_.has_value()) {
    throw InvalidArgument(
        "backend 'auto' requires a tuning table — run TuningSuite::generate and "
        "set_tuning_table first");
  }
  // An op the suite never tuned must not kill the run: resolution falls back
  // to the default (first initialised) backend with a warning and a counter;
  // only direct TuningTable::lookup callers still get the throw.
  if (!tuning_table_->has(op)) {
    cluster_->metrics().counter("tune.fallback", {{"op", op_name(op)}}).inc();
    MCRDL_LOG_WARN << "backend 'auto' requested for " << op_name(op)
                   << " but the tuning table has no entries for it; falling back to '"
                   << backend_order_.front() << "'";
    return backend_order_.front();
  }
  const std::string& best = tuning_table_->lookup(op, world, bytes);
  if (backends_.count(best) > 0) return best;
  // The tuned winner is not among the initialised backends; fall back to the
  // first initialised one rather than failing mid-training.
  MCRDL_LOG_WARN << "tuning table prefers '" << best << "' for " << op_name(op)
                 << " but it is not initialised; using '" << backend_order_.front() << "'";
  return backend_order_.front();
}

void McrDl::validate_composite(coll::CompositeSpec& spec) const {
  if (spec.intra.empty()) spec.intra = backend_order_.front();  // bare "rsag"
  if (!has_backend(spec.intra)) {
    throw InvalidArgument("composite '" + spec.text + "' names backend '" + spec.intra +
                          "' which was not passed to init()");
  }
  if (spec.algo == coll::CompositeAlgo::Hier && !has_backend(spec.inter)) {
    throw InvalidArgument("composite '" + spec.text + "' names backend '" + spec.inter +
                          "' which was not passed to init()");
  }
}

Api McrDl::on(int rank) { return Api(this, rank); }

// ---------------------------------------------------------------------------
// Api — every method packs its arguments into an OpRequest and executes it
// through the OpPipeline; all cross-cutting behaviour (overhead, tuning,
// fusion, compression, logging, fault routing, emulation) lives in the
// pipeline's stages, written once instead of once per operation.
// ---------------------------------------------------------------------------

Api::Api(McrDl* ctx, int rank, std::vector<int> group)
    : ctx_(ctx), rank_(rank), group_(std::move(group)) {
  MCRDL_REQUIRE(ctx_ != nullptr, "Api needs a context");
  MCRDL_REQUIRE(rank_ >= 0 && rank_ < ctx_->cluster()->world_size(), "Api rank out of range");
}

Api Api::group(std::vector<int> ranks) const {
  MCRDL_REQUIRE(!ranks.empty(), "group needs at least one rank");
  return Api(ctx_, rank_, std::move(ranks));
}

Comm* Api::comm_for(Backend* b) const {
  return group_.empty() ? b->world() : b->group(group_);
}

int Api::get_rank(const std::string& backend) const {
  return comm_for(ctx_->backend(backend))->group_rank(rank_);
}

int Api::get_size(const std::string& backend) const {
  return comm_for(ctx_->backend(backend))->size();
}

Work Api::dispatch(OpRequest req) const {
  return ctx_->pipeline().execute(rank_, group_, std::move(req));
}

void Api::synchronize() {
  ctx_->fusion().flush_all(rank_);
  // Drive this rank's composite chains to completion first: their remaining
  // phases post sub-ops the backend synchronize below must also cover.
  if (ctx_->coll_enabled()) ctx_->overlap_scheduler()->drain(rank_);
  for (const auto& name : ctx_->get_backends()) ctx_->backend(name)->synchronize(rank_);
}

void Api::synchronize(const std::string& backend) {
  ctx_->fusion().flush_all(rank_);
  if (ctx_->coll_enabled()) ctx_->overlap_scheduler()->drain(rank_);
  ctx_->backend(backend)->synchronize(rank_);
}

Work Api::all_reduce(const std::string& backend, Tensor tensor, ReduceOp op, bool async_op) {
  OpRequest req;
  req.op = OpType::AllReduce;
  req.backend = backend;
  req.tensor = std::move(tensor);
  req.rop = op;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::broadcast(const std::string& backend, Tensor tensor, int root, bool async_op) {
  OpRequest req;
  req.op = OpType::Broadcast;
  req.backend = backend;
  req.tensor = std::move(tensor);
  req.root = root;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::reduce(const std::string& backend, Tensor tensor, int root, ReduceOp op,
                 bool async_op) {
  OpRequest req;
  req.op = OpType::Reduce;
  req.backend = backend;
  req.tensor = std::move(tensor);
  req.root = root;
  req.rop = op;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::all_gather(const std::string& backend, Tensor output, Tensor input, bool async_op) {
  OpRequest req;
  req.op = OpType::AllGather;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::all_gatherv(const std::string& backend, Tensor output, Tensor input,
                      std::vector<int> recv_counts, std::vector<int> recv_displs, bool async_op) {
  OpRequest req;
  req.op = OpType::AllGatherV;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.recv_counts = std::move(recv_counts);
  req.recv_displs = std::move(recv_displs);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::gather(const std::string& backend, Tensor output, Tensor input, int root,
                 bool async_op) {
  OpRequest req;
  req.op = OpType::Gather;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.root = root;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::gatherv(const std::string& backend, Tensor output, Tensor input, int root,
                  std::vector<int> recv_counts, std::vector<int> recv_displs, bool async_op) {
  OpRequest req;
  req.op = OpType::GatherV;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.root = root;
  req.recv_counts = std::move(recv_counts);
  req.recv_displs = std::move(recv_displs);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::scatter(const std::string& backend, Tensor output, Tensor input, int root,
                  bool async_op) {
  OpRequest req;
  req.op = OpType::Scatter;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.root = root;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::scatterv(const std::string& backend, Tensor output, Tensor input, int root,
                   std::vector<int> send_counts, std::vector<int> send_displs, bool async_op) {
  OpRequest req;
  req.op = OpType::ScatterV;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.root = root;
  req.send_counts = std::move(send_counts);
  req.send_displs = std::move(send_displs);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::reduce_scatter(const std::string& backend, Tensor output, Tensor input, ReduceOp op,
                         bool async_op) {
  OpRequest req;
  req.op = OpType::ReduceScatter;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.rop = op;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::all_to_all_single(const std::string& backend, Tensor output, Tensor input,
                            bool async_op) {
  OpRequest req;
  req.op = OpType::AllToAllSingle;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::all_to_all(const std::string& backend, TensorList outputs, TensorList inputs,
                     bool async_op) {
  OpRequest req;
  req.op = OpType::AllToAll;
  req.backend = backend;
  req.outputs = std::move(outputs);
  req.inputs = std::move(inputs);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::all_to_allv(const std::string& backend, Tensor output, Tensor input,
                      std::vector<int> send_counts, std::vector<int> send_displs,
                      std::vector<int> recv_counts, std::vector<int> recv_displs, bool async_op) {
  OpRequest req;
  req.op = OpType::AllToAllV;
  req.backend = backend;
  req.output = std::move(output);
  req.input = std::move(input);
  req.send_counts = std::move(send_counts);
  req.send_displs = std::move(send_displs);
  req.recv_counts = std::move(recv_counts);
  req.recv_displs = std::move(recv_displs);
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::barrier(const std::string& backend, bool async_op) {
  OpRequest req;
  req.op = OpType::Barrier;
  req.backend = backend;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::send(const std::string& backend, Tensor tensor, int dst, bool async_op) {
  OpRequest req;
  req.op = OpType::Send;
  req.backend = backend;
  req.tensor = std::move(tensor);
  req.peer = dst;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

Work Api::recv(const std::string& backend, Tensor tensor, int src, bool async_op) {
  OpRequest req;
  req.op = OpType::Recv;
  req.backend = backend;
  req.tensor = std::move(tensor);
  req.peer = src;
  req.async_op = async_op;
  return dispatch(std::move(req));
}

}  // namespace mcrdl
