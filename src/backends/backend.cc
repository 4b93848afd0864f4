#include "src/backends/backend.h"

#include <algorithm>
#include <sstream>

namespace mcrdl {

using backends_detail::ArrivalSlot;
using backends_detail::HostOp;
using backends_detail::OpDesc;
using backends_detail::P2pOp;

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

namespace {

// Every communicator's cost model feeds the cluster-wide link-usage
// accumulator (so link-utilization gauges cover all backends and groups)
// and reads the cluster's shared tenant-contention state.
net::CostModel instrumented_cost_model(Backend* backend) {
  net::CostModel model(&backend->cluster()->topology(), backend->profile());
  model.set_usage(&backend->cluster()->link_usage());
  model.set_contention(&backend->cluster()->contention());
  return model;
}

// Each global rank's dense index in `ranks`, indexed by global rank, with -1
// for non-members. Validates the group before the engines see it, and before
// a rank past the world can size the index.
std::vector<int> dense_group_index(const std::vector<int>& ranks, int world_size) {
  MCRDL_REQUIRE(!ranks.empty(), "communicator needs at least one rank");
  MCRDL_REQUIRE(*std::min_element(ranks.begin(), ranks.end()) >= 0,
                "negative rank in communicator group");
  const int top = *std::max_element(ranks.begin(), ranks.end());
  MCRDL_REQUIRE(top < world_size, "rank out of range for communicator group");
  std::vector<int> index(static_cast<std::size_t>(top) + 1, -1);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    int& slot = index[static_cast<std::size_t>(ranks[i])];
    MCRDL_REQUIRE(slot < 0, "duplicate rank in communicator group");
    slot = static_cast<int>(i);
  }
  return index;
}

}  // namespace

Comm::Comm(Backend* backend, std::vector<int> ranks)
    : backend_(backend),
      ranks_(std::move(ranks)),
      group_rank_(dense_group_index(ranks_, backend->cluster()->world_size())),
      engine_(&backend->cluster()->scheduler(), instrumented_cost_model(backend),
              net::CommShape::of(backend->cluster()->topology(), ranks_),
              static_cast<int>(ranks_.size()), ranks_, &backend->cluster()->faults(),
              backend->profile().name),
      p2p_(&backend->cluster()->scheduler(), instrumented_cost_model(backend), ranks_,
           &backend->cluster()->faults(), backend->profile().name) {}

int Comm::group_rank(int global_rank) const {
  MCRDL_REQUIRE(contains(global_rank), "rank is not a member of this communicator");
  return group_rank_[static_cast<std::size_t>(global_rank)];
}

bool Comm::contains(int global_rank) const {
  return global_rank >= 0 && static_cast<std::size_t>(global_rank) < group_rank_.size() &&
         group_rank_[static_cast<std::size_t>(global_rank)] >= 0;
}

void Comm::validate_root(int root) const {
  MCRDL_REQUIRE(root >= 0 && root < size(), "root out of range for communicator");
}

void Comm::inject_launch_delay(int global_rank) {
  fault::FaultInjector& faults = backend_->cluster()->faults();
  if (!faults.enabled()) return;
  // Stragglers add a flat per-op delay; slowdowns stretch the backend's
  // launch overhead. Both are charged to this rank's host thread before the
  // operation is posted, so the rendezvous genuinely waits for it.
  const SimTime delay =
      faults.rank_delay(global_rank) +
      (faults.rank_launch_scale(global_rank) - 1.0) * backend_->profile().launch_overhead_us;
  if (delay <= 0.0) return;
  faults.note_injected_delay(delay);
  backend_->cluster()->scheduler().sleep_for(delay);
}

Work Comm::submit(int rank, OpDesc desc, ArrivalSlot slot, bool async_op) {
  backend_->require_initialized();
  inject_launch_delay(rank);
  if (!backend_->profile().is_native(desc.op)) {
    std::ostringstream msg;
    msg << backend_->display_name() << " has no native " << op_name(desc.op)
        << " (MCR-DL emulates it from native primitives)";
    throw UnsupportedOperation(msg.str());
  }
  const int idx = group_rank(rank);
  return post(rank, engine_.join(idx, desc, std::move(slot)), idx, desc.op, desc.bytes, async_op);
}

Work Comm::post(int rank, std::shared_ptr<HostOp> op, int idx, OpType type, std::size_t bytes,
                bool async_op) {
  Work work = backend_->post(rank, op, idx, bytes);
  op->on_complete([work, op_raw = op.get()] { work->exec_start = op_raw->exec_start_time(); });
  work->op = type;
  work->backend_name = backend_->name();
  work->posted_at = backend_->cluster()->scheduler().now();
  backend_->track(rank, work);
  if (!async_op) work->wait();
  return work;
}

Work Comm::all_reduce(int rank, Tensor tensor, ReduceOp op, bool async_op,
                      double launch_discount_us) {
  MCRDL_REQUIRE(tensor.defined(), "all_reduce needs a defined tensor");
  MCRDL_REQUIRE(launch_discount_us >= 0.0, "launch discount must be non-negative");
  (void)group_rank(rank);
  OpDesc desc{OpType::AllReduce, tensor.bytes(), 0, op, launch_discount_us};
  ArrivalSlot slot;
  slot.input = std::move(tensor);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::broadcast(int rank, Tensor tensor, int root, bool async_op) {
  MCRDL_REQUIRE(tensor.defined(), "broadcast needs a defined tensor");
  validate_root(root);
  (void)group_rank(rank);
  OpDesc desc{OpType::Broadcast, tensor.bytes(), root, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(tensor);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::reduce(int rank, Tensor tensor, int root, ReduceOp op, bool async_op) {
  MCRDL_REQUIRE(tensor.defined(), "reduce needs a defined tensor");
  validate_root(root);
  (void)group_rank(rank);
  OpDesc desc{OpType::Reduce, tensor.bytes(), root, op};
  ArrivalSlot slot;
  slot.input = std::move(tensor);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::all_gather(int rank, Tensor output, Tensor input, bool async_op) {
  MCRDL_REQUIRE(input.defined() && output.defined(), "all_gather needs input and output");
  MCRDL_REQUIRE(output.numel() == input.numel() * size(),
                "all_gather output must hold size() blocks of the input");
  (void)group_rank(rank);
  OpDesc desc{OpType::AllGather, input.bytes(), 0, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::all_gatherv(int rank, Tensor output, Tensor input, std::vector<int> recv_counts,
                       std::vector<int> recv_displs, bool async_op) {
  MCRDL_REQUIRE(input.defined() && output.defined(), "all_gatherv needs input and output");
  MCRDL_REQUIRE(recv_counts.size() == static_cast<std::size_t>(size()) &&
                    recv_displs.size() == static_cast<std::size_t>(size()),
                "all_gatherv counts/displs must have one entry per rank");
  const int idx = group_rank(rank);
  MCRDL_REQUIRE(input.numel() >= recv_counts[static_cast<std::size_t>(idx)],
                "all_gatherv input smaller than this rank's declared count");
  OpDesc desc{OpType::AllGatherV, input.bytes(), 0, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  slot.recv_counts = std::move(recv_counts);
  slot.recv_displs = std::move(recv_displs);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::gather(int rank, Tensor output, Tensor input, int root, bool async_op) {
  MCRDL_REQUIRE(input.defined(), "gather needs an input tensor");
  validate_root(root);
  const int idx = group_rank(rank);
  if (idx == root) {
    MCRDL_REQUIRE(output.defined() && output.numel() == input.numel() * size(),
                  "gather root output must hold size() blocks of the input");
  }
  OpDesc desc{OpType::Gather, input.bytes(), root, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::gatherv(int rank, Tensor output, Tensor input, int root, std::vector<int> recv_counts,
                   std::vector<int> recv_displs, bool async_op) {
  MCRDL_REQUIRE(input.defined(), "gatherv needs an input tensor");
  validate_root(root);
  const int idx = group_rank(rank);
  if (idx == root) {
    MCRDL_REQUIRE(output.defined(), "gatherv root needs an output tensor");
    MCRDL_REQUIRE(recv_counts.size() == static_cast<std::size_t>(size()) &&
                      recv_displs.size() == static_cast<std::size_t>(size()),
                  "gatherv counts/displs must have one entry per rank");
  }
  OpDesc desc{OpType::GatherV, input.bytes(), root, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  slot.recv_counts = std::move(recv_counts);
  slot.recv_displs = std::move(recv_displs);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::scatter(int rank, Tensor output, Tensor input, int root, bool async_op) {
  MCRDL_REQUIRE(output.defined(), "scatter needs an output tensor");
  validate_root(root);
  const int idx = group_rank(rank);
  if (idx == root) {
    MCRDL_REQUIRE(input.defined() && input.numel() == output.numel() * size(),
                  "scatter root input must hold size() blocks of the output");
  }
  OpDesc desc{OpType::Scatter, output.bytes(), root, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::scatterv(int rank, Tensor output, Tensor input, int root, std::vector<int> send_counts,
                    std::vector<int> send_displs, bool async_op) {
  MCRDL_REQUIRE(output.defined(), "scatterv needs an output tensor");
  validate_root(root);
  const int idx = group_rank(rank);
  if (idx == root) {
    MCRDL_REQUIRE(input.defined(), "scatterv root needs an input tensor");
    MCRDL_REQUIRE(send_counts.size() == static_cast<std::size_t>(size()) &&
                      send_displs.size() == static_cast<std::size_t>(size()),
                  "scatterv counts/displs must have one entry per rank");
  }
  OpDesc desc{OpType::ScatterV, output.bytes(), root, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  slot.send_counts = std::move(send_counts);
  slot.send_displs = std::move(send_displs);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::reduce_scatter(int rank, Tensor output, Tensor input, ReduceOp op, bool async_op) {
  MCRDL_REQUIRE(input.defined() && output.defined(), "reduce_scatter needs input and output");
  MCRDL_REQUIRE(input.numel() == output.numel() * size(),
                "reduce_scatter input must hold size() blocks of the output");
  (void)group_rank(rank);
  OpDesc desc{OpType::ReduceScatter, input.bytes(), 0, op};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::all_to_all_single(int rank, Tensor output, Tensor input, bool async_op) {
  MCRDL_REQUIRE(input.defined() && output.defined(), "all_to_all_single needs input and output");
  MCRDL_REQUIRE(input.numel() % size() == 0, "all_to_all_single input not divisible by size()");
  MCRDL_REQUIRE(output.numel() % size() == 0, "all_to_all_single output not divisible by size()");
  (void)group_rank(rank);
  OpDesc desc{OpType::AllToAllSingle, input.bytes(), 0, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::all_to_all(int rank, TensorList outputs, TensorList inputs, bool async_op) {
  MCRDL_REQUIRE(inputs.size() == static_cast<std::size_t>(size()),
                "all_to_all needs one input tensor per rank");
  MCRDL_REQUIRE(outputs.size() == static_cast<std::size_t>(size()),
                "all_to_all needs one output tensor per rank");
  (void)group_rank(rank);
  OpDesc desc{OpType::AllToAll, total_bytes(inputs), 0, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.inputs = std::move(inputs);
  slot.outputs = std::move(outputs);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::all_to_allv(int rank, Tensor output, Tensor input, std::vector<int> send_counts,
                       std::vector<int> send_displs, std::vector<int> recv_counts,
                       std::vector<int> recv_displs, bool async_op) {
  MCRDL_REQUIRE(input.defined() && output.defined(), "all_to_allv needs input and output");
  const auto n = static_cast<std::size_t>(size());
  MCRDL_REQUIRE(send_counts.size() == n && send_displs.size() == n && recv_counts.size() == n &&
                    recv_displs.size() == n,
                "all_to_allv counts/displs must have one entry per rank");
  (void)group_rank(rank);
  OpDesc desc{OpType::AllToAllV, input.bytes(), 0, ReduceOp::Sum};
  ArrivalSlot slot;
  slot.input = std::move(input);
  slot.output = std::move(output);
  slot.send_counts = std::move(send_counts);
  slot.send_displs = std::move(send_displs);
  slot.recv_counts = std::move(recv_counts);
  slot.recv_displs = std::move(recv_displs);
  return submit(rank, desc, std::move(slot), async_op);
}

Work Comm::barrier(int rank, bool async_op) {
  (void)group_rank(rank);
  OpDesc desc{OpType::Barrier, 0, 0, ReduceOp::Sum};
  return submit(rank, desc, ArrivalSlot{}, async_op);
}

Work Comm::send(int rank, Tensor tensor, int dst, bool async_op) {
  backend_->require_initialized();
  MCRDL_REQUIRE(tensor.defined(), "send needs a defined tensor");
  const int idx = group_rank(rank);
  MCRDL_REQUIRE(dst >= 0 && dst < size() && dst != idx, "invalid send destination");
  inject_launch_delay(rank);
  return post(rank, p2p_.post_send(idx, dst, tensor), P2pOp::kSendSide, OpType::Send,
              tensor.bytes(), async_op);
}

Work Comm::issue(int rank, const OpRequest& req) {
  // Per-backend traffic accounting: one increment per native issue attempt
  // (retries and failover re-issues count — that is the point: the counters
  // show where traffic actually went, not where it was asked to go).
  // Handles are resolved on first use, so the registry only ever holds the
  // (backend, op) pairs that actually ran.
  obs::Counter*& ops = ops_counters_[static_cast<std::size_t>(req.op)];
  if (ops == nullptr) {
    ops = &backend_->cluster()->metrics().counter(
        "comm_ops", {{"backend", backend_->name()}, {"op", op_name(req.op)}});
  }
  if (bytes_counter_ == nullptr) {
    bytes_counter_ =
        &backend_->cluster()->metrics().counter("comm_bytes", {{"backend", backend_->name()}});
  }
  ops->inc();
  bytes_counter_->inc(req.payload_bytes());
  switch (req.op) {
    case OpType::AllReduce:
      return all_reduce(rank, req.tensor, req.rop, req.async_op);
    case OpType::Broadcast:
      return broadcast(rank, req.tensor, req.root, req.async_op);
    case OpType::Reduce:
      return reduce(rank, req.tensor, req.root, req.rop, req.async_op);
    case OpType::AllGather:
      return all_gather(rank, req.output, req.input, req.async_op);
    case OpType::AllGatherV:
      return all_gatherv(rank, req.output, req.input, req.recv_counts, req.recv_displs,
                         req.async_op);
    case OpType::Gather:
      return gather(rank, req.output, req.input, req.root, req.async_op);
    case OpType::GatherV:
      return gatherv(rank, req.output, req.input, req.root, req.recv_counts, req.recv_displs,
                     req.async_op);
    case OpType::Scatter:
      return scatter(rank, req.output, req.input, req.root, req.async_op);
    case OpType::ScatterV:
      return scatterv(rank, req.output, req.input, req.root, req.send_counts, req.send_displs,
                      req.async_op);
    case OpType::ReduceScatter:
      return reduce_scatter(rank, req.output, req.input, req.rop, req.async_op);
    case OpType::AllToAllSingle:
      return all_to_all_single(rank, req.output, req.input, req.async_op);
    case OpType::AllToAll:
      return all_to_all(rank, req.outputs, req.inputs, req.async_op);
    case OpType::AllToAllV:
      return all_to_allv(rank, req.output, req.input, req.send_counts, req.send_displs,
                         req.recv_counts, req.recv_displs, req.async_op);
    case OpType::Barrier:
      return barrier(rank, req.async_op);
    case OpType::Send:
      return send(rank, req.tensor, req.peer, req.async_op);
    case OpType::Recv:
      return recv(rank, req.tensor, req.peer, req.async_op);
  }
  throw InvalidArgument("Comm::issue: unknown OpType");
}

Work Comm::recv(int rank, Tensor tensor, int src, bool async_op) {
  backend_->require_initialized();
  MCRDL_REQUIRE(tensor.defined(), "recv needs a defined tensor");
  const int idx = group_rank(rank);
  MCRDL_REQUIRE(src >= 0 && src < size() && src != idx, "invalid recv source");
  inject_launch_delay(rank);
  return post(rank, p2p_.post_recv(idx, src, tensor), P2pOp::kRecvSide, OpType::Recv,
              tensor.bytes(), async_op);
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

Backend::Backend(ClusterContext* cluster, net::BackendProfile profile)
    : cluster_(cluster),
      profile_(std::move(profile)),
      outstanding_(static_cast<std::size_t>(cluster->world_size())) {
  MCRDL_REQUIRE(cluster_ != nullptr, "backend needs a cluster context");
}

void Backend::init() {
  MCRDL_CHECK(!initialized_) << "backend " << name() << " initialised twice";
  initialized_ = true;
}

void Backend::finalize() {
  require_initialized();
  initialized_ = false;
}

void Backend::require_initialized() const {
  if (!initialized_) {
    throw BackendStateError("backend '" + name() + "' is not initialised (call init first)");
  }
}

void Backend::synchronize(int rank) {
  require_initialized();
  MCRDL_REQUIRE(rank >= 0 && rank < cluster_->world_size(), "synchronize rank out of range");
  auto& pending = outstanding_[static_cast<std::size_t>(rank)];
  // Work handles may enqueue more work while we drain, so swap out first.
  std::vector<Work> draining;
  draining.swap(pending);
  for (auto& w : draining) {
    try {
      w->synchronize();
    } catch (const RankLostError&) {
      // The op was cancelled by a recovery quiesce. Its error already
      // surfaced at the issue path (and the op was replayed on the shrunk
      // communicator); a survivor's flush must not rethrow it again.
    }
  }
  // Hand the drained buffer back, so tracking the next window's ops does
  // not regrow it.
  if (pending.empty()) {
    draining.clear();
    pending.swap(draining);
  }
}

void Backend::track(int rank, const Work& work) {
  auto& pending = outstanding_[static_cast<std::size_t>(rank)];
  // Keep the set bounded: drop already-completed handles opportunistically.
  if (pending.size() >= 256) {
    std::erase_if(pending, [](const Work& w) { return w->test(); });
  }
  pending.push_back(work);
}

Comm* Backend::world() {
  if (!world_) {
    std::vector<int> ranks(static_cast<std::size_t>(cluster_->world_size()));
    for (int r = 0; r < cluster_->world_size(); ++r) ranks[static_cast<std::size_t>(r)] = r;
    world_ = std::make_unique<Comm>(this, std::move(ranks));
  }
  return world_.get();
}

Comm* Backend::group(const std::vector<int>& ranks) {
  auto it = groups_.find(ranks);
  if (it == groups_.end()) {
    it = groups_.emplace(ranks, std::make_unique<Comm>(this, ranks)).first;
  }
  return it->second.get();
}

// ---------------------------------------------------------------------------
// StreamBackend
// ---------------------------------------------------------------------------

StreamBackend::StreamBackend(ClusterContext* cluster, net::BackendProfile profile)
    : Backend(cluster, std::move(profile)),
      pools_(static_cast<std::size_t>(cluster->world_size())),
      next_stream_(static_cast<std::size_t>(cluster->world_size()), 0) {
  for (int r = 0; r < cluster->world_size(); ++r) {
    auto& pool = pools_[static_cast<std::size_t>(r)];
    for (int s = 0; s < kStreamPoolSize; ++s) {
      pool.push_back(cluster->device(r)->create_stream(name() + "-comm" + std::to_string(s)));
    }
  }
}

sim::Stream* StreamBackend::comm_stream(int rank, std::size_t bytes) {
  auto& pool = pools_[static_cast<std::size_t>(rank)];
  if (bytes > kConcurrentSmallMessageLimit) return pool[0];
  int& cursor = next_stream_[static_cast<std::size_t>(rank)];
  sim::Stream* s = pool[static_cast<std::size_t>(cursor)];
  cursor = (cursor + 1) % kStreamPoolSize;
  return s;
}

Work StreamBackend::post(int global_rank, std::shared_ptr<HostOp> op, int idx,
                         std::size_t bytes) {
  sim::Device* dev = cluster_->device(global_rank);
  sim::Stream* stream = comm_stream(global_rank, bytes);
  auto work = std::make_shared<StreamWork>(&cluster_->scheduler(), dev->default_stream());
  // Input dependency: the communication stream waits for everything the
  // default stream has produced so far (fine-grained event, Fig 4(b) step 2).
  const std::shared_ptr<sim::Event> input_ready = work->input_ready();
  dev->default_stream()->record_event(input_ready);
  stream->wait_event(input_ready);
  // Stream-side arrival: the operation starts when every participant's
  // stream has reached this op; each stalls here until it completes.
  std::shared_ptr<sim::StreamGate> gate = op->gate();
  stream->add_callback([op = std::move(op), idx] { op->mark_ready(idx); }, std::move(gate),
                       work->done_event());
  return work;
}

// ---------------------------------------------------------------------------
// HostMpiBackend
// ---------------------------------------------------------------------------

HostMpiBackend::HostMpiBackend(ClusterContext* cluster, net::BackendProfile profile)
    : Backend(cluster, std::move(profile)) {}

Work HostMpiBackend::post(int global_rank, std::shared_ptr<HostOp> op, int idx,
                          std::size_t /*bytes*/) {
  // CUDA-aware MPI lets the library manage streams (paper Section V-D,
  // option 1): the operation may start once the data produced on this
  // rank's default stream so far is complete.
  cluster_->device(global_rank)->default_stream()->add_callback(
      [op, idx] { op->mark_ready(idx); });
  return std::make_shared<HostWork>(std::move(op));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<Backend> make_backend(const std::string& name, ClusterContext* cluster) {
  if (name == "nccl") return std::make_unique<StreamBackend>(cluster, net::nccl_profile());
  if (name == "sccl") return std::make_unique<StreamBackend>(cluster, net::sccl_profile());
  if (name == "mv2-gdr") return std::make_unique<HostMpiBackend>(cluster, net::mv2_gdr_profile());
  if (name == "ompi") return std::make_unique<HostMpiBackend>(cluster, net::ompi_profile());
  // Extensibility demo: a new backend is one profile + one factory line.
  if (name == "gloo") return std::make_unique<HostMpiBackend>(cluster, net::gloo_profile());
  throw InvalidArgument("unknown backend '" + name +
                        "' (available: nccl, sccl, mv2-gdr, ompi, gloo)");
}

// The paper's four evaluated backends; "gloo" is also accepted by
// make_backend but stays out of tuning sweeps by default.
std::vector<std::string> available_backend_names() { return {"mv2-gdr", "ompi", "nccl", "sccl"}; }

}  // namespace mcrdl
