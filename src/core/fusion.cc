#include "src/core/fusion.h"

#include <algorithm>

#include "src/common/completion.h"

namespace mcrdl {

// Shared state between a batch and the Works handed out for its tensors.
struct FusionManager::PendingFusion {
  Work inner;  // the fused collective, set at flush time
  // Fired at flush: the callbacks queued so far move onto `inner`, and
  // later ones are handed straight to it.
  Completion flush;
  FusionManager* mgr = nullptr;
  Key key;
};

class FusionManager::FusionWork : public WorkHandle {
 public:
  explicit FusionWork(std::shared_ptr<PendingFusion> pending) : pending_(std::move(pending)) {}

  bool test() const override { return pending_->flush.fired() && pending_->inner->test(); }

  void wait() override { force_flush()->wait(); }

  void synchronize() override { force_flush()->synchronize(); }

  SimTime complete_time() const override {
    // An unflushed batch has no completion instant yet; returning one
    // (0.0 used to leak out here) silently corrupts latency accounting.
    // Callers must observe test() == true, wait(), or ask from an
    // on_complete callback before querying.
    MCRDL_CHECK(pending_->flush.fired())
        << "complete_time() queried on an unflushed fusion batch — the fused collective has "
           "not been issued, so no completion timestamp exists yet";
    return pending_->inner->complete_time();
  }

  void on_complete(InlineFn fn) override {
    fn = pending_->flush.add(std::move(fn));
    if (!fn) return;  // queued until the flush
    pending_->inner->on_complete(std::move(fn));
  }

 private:
  // Waiting on a not-yet-flushed fusion forces the flush (the data
  // dependency outranks the timeout). Returns the inner Work to block on.
  Work force_flush() {
    if (!pending_->flush.fired()) pending_->mgr->flush_if_pending(pending_->key);
    MCRDL_CHECK(pending_->flush.fired());
    return pending_->inner;
  }

  std::shared_ptr<PendingFusion> pending_;
};

std::uint32_t FusionManager::compute_admit_mask(const FusionConfig& config) {
  std::uint32_t mask = 0;
  for (const OpType op : config.ops) {
    MCRDL_REQUIRE(op == OpType::AllReduce || op == OpType::Reduce || op == OpType::Broadcast,
                  "only AllReduce, Reduce and Broadcast are bucketable");
    mask |= 1u << static_cast<unsigned>(op);
  }
  return mask;
}

FusionManager::FusionManager(ClusterContext* cluster, FusionConfig config)
    : cluster_(cluster), config_(std::move(config)), admit_mask_(compute_admit_mask(config_)) {}

FusionManager::~FusionManager() {
  for (auto& [key, batch] : batches_) {
    if (batch.pending != nullptr) batch.pending->flush.drop();
  }
}

void FusionManager::set_config(FusionConfig config) {
  admit_mask_ = compute_admit_mask(config);
  config_ = std::move(config);
}

bool FusionManager::eligible(OpType op, const Tensor& t) const {
  return config_.enabled && admits(op) && t.defined() && t.bytes() <= config_.max_tensor_bytes;
}

Work FusionManager::submit(Comm* comm, int rank, OpType op, Tensor t, ReduceOp rop, int root) {
  MCRDL_REQUIRE(comm != nullptr, "fusion needs a communicator");
  MCRDL_REQUIRE(eligible(op, t), "tensor is not eligible for fusion");
  // Unrooted ops normalize root to -1 so every caller lands in one bucket;
  // rooted ops key on it so different roots never coalesce.
  if (op == OpType::AllReduce) root = -1;
  const Key key{rank, comm, static_cast<int>(op), static_cast<int>(rop), root,
                static_cast<int>(t.dtype())};
  Batch& batch = batches_[key];
  if (batch.pending == nullptr) {
    batch.comm = comm;
    batch.rank = rank;
    batch.op = op;
    batch.rop = rop;
    batch.root = root;
    batch.dtype = t.dtype();
    batch.pending = std::make_shared<PendingFusion>();
    batch.pending->mgr = this;
    batch.pending->key = key;
    // Arm the T timeout from the first tensor's arrival; flush_batch
    // cancels it, so a size-triggered flush leaves no stale closure behind
    // in the scheduler's event queue.
    batch.timer_armed = true;
    const std::uint64_t gen = batch.generation;
    batch.timer_id = cluster_->scheduler().schedule_after(
        config_.flush_timeout_us, [this, key, gen] { on_timeout(key, gen); });
  }
  batch.tensors.push_back(t);
  batch.total_numel += t.numel();
  batch.bytes += t.bytes();
  batch.any_phantom = batch.any_phantom || !t.materialized();
  ++fused_tensor_count_;
  Work w = std::make_shared<FusionWork>(batch.pending);
  w->op = op;
  w->backend_name = comm->backend()->name();
  w->posted_at = cluster_->scheduler().now();
  batch.posted.push_back(w->posted_at);
  if (batch.bytes >= config_.buffer_bytes) flush_batch(key, batch);
  return w;
}

void FusionManager::flush_if_pending(const Key& key) {
  auto it = batches_.find(key);
  if (it == batches_.end() || it->second.pending == nullptr) return;
  flush_batch(key, it->second);
}

void FusionManager::on_timeout(const Key& key, std::uint64_t generation) {
  auto it = batches_.find(key);
  if (it == batches_.end() || it->second.pending == nullptr ||
      it->second.generation != generation) {
    return;  // stale timer: the batch already flushed
  }
  ++timeout_flush_count_;
  const int rank = it->second.rank;
  flush_batch(key, it->second);
  if (!config_.cross_backend_overlap) return;
  // The buffer timed out before filling — bandwidth is unsaturated, so
  // flush other backends' pending buffers for this rank to overlap them.
  std::vector<Key> to_flush;
  for (auto& [other_key, other] : batches_) {
    if (other.pending != nullptr && other.rank == rank) to_flush.push_back(other_key);
  }
  for (const auto& k : to_flush) {
    auto oit = batches_.find(k);
    if (oit != batches_.end() && oit->second.pending != nullptr) {
      ++overlap_flush_count_;
      flush_batch(k, oit->second);
    }
  }
}

void FusionManager::flush_batch(const Key& key, Batch& batch) {
  (void)key;  // retained for symmetry with the other per-key entry points
  MCRDL_CHECK(batch.pending != nullptr);
  // Retire the armed timeout. Harmless if this flush IS the timeout firing
  // (cancel of a fired event is a no-op); essential for size-triggered
  // flushes, whose timer closure would otherwise sit in the scheduler's
  // queue as a dead generation-guarded tombstone until its deadline —
  // unboundedly many of them on bucket-heavy workloads.
  if (batch.timer_armed) cluster_->scheduler().cancel(batch.timer_id);
  auto pending = batch.pending;
  std::vector<Tensor> tensors;
  tensors.swap(batch.tensors);
  std::vector<SimTime> posted;
  posted.swap(batch.posted);
  const std::int64_t total = batch.total_numel;
  const bool phantom = batch.any_phantom;
  Comm* comm = batch.comm;
  const int rank = batch.rank;
  const OpType op = batch.op;
  const ReduceOp rop = batch.rop;
  const int root = batch.root;
  const DType dtype = batch.dtype;

  // Reset the slot so new submissions start a fresh batch.
  ++batch.generation;
  batch.pending = nullptr;
  batch.total_numel = 0;
  batch.bytes = 0;
  batch.any_phantom = false;
  batch.timer_armed = false;
  batch.timer_id = 0;
  ++flush_count_;

  // Pack.
  sim::Device* dev = cluster_->device(rank);
  Tensor fused = phantom ? Tensor::phantom({total}, dtype, dev)
                         : Tensor::zeros({total}, dtype, dev);
  if (!phantom) {
    std::int64_t offset = 0;
    for (const Tensor& t : tensors) {
      fused.view(offset, t.numel()).copy_from(t);
      offset += t.numel();
    }
  }

  Work inner;
  switch (op) {
    case OpType::AllReduce:
      inner = comm->all_reduce(rank, fused, rop, /*async_op=*/true);
      break;
    case OpType::Reduce:
      inner = comm->reduce(rank, fused, root, rop, /*async_op=*/true);
      break;
    case OpType::Broadcast:
      inner = comm->broadcast(rank, fused, root, /*async_op=*/true);
      break;
    default:
      MCRDL_CHECK(false) << "unbucketable op reached flush: " << op_name(op);
  }
  // Slice back at completion, before any waiter resumes. For ops that leave
  // part of the fused buffer untouched (Reduce on a non-root rank), the
  // copy-back restores the caller's own input — exactly what the unbucketed
  // collective would have left in place.
  //
  // The same closure bills every entry's end-to-end latency — completion
  // instant minus that entry's submit instant, the dispatch layer's
  // convention for works without an execution window. Billing here, once per
  // batch, is what lets the finish stage skip its per-op completion closure for
  // fused ops entirely (the bucketed hot path's largest allocation).
  obs::Histogram* latency = &cluster_->metrics().histogram(
      "op_latency_us", {{"backend", comm->backend()->name()}, {"op", op_name(op)}});
  WorkHandle* raw = inner.get();  // alive for the duration of its own callbacks
  inner->on_complete([tensors, fused, posted = std::move(posted), latency, raw]() mutable {
    const SimTime end = raw->complete_time();
    for (const SimTime p : posted) latency->observe(end - p);
    if (!fused.materialized()) return;
    std::int64_t offset = 0;
    for (Tensor& t : tensors) {
      if (t.materialized()) t.copy_from(fused.view(offset, t.numel()));
      offset += t.numel();
    }
  });
  pending->inner = inner;
  for (auto& fn : pending->flush.fire()) inner->on_complete(std::move(fn));
}

void FusionManager::flush_all(int rank) {
  std::vector<Key> keys;
  for (auto& [key, batch] : batches_) {
    if (batch.pending != nullptr && batch.rank == rank) keys.push_back(key);
  }
  for (const auto& key : keys) flush_if_pending(key);
}

}  // namespace mcrdl
