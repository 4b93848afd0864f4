// Tensor fusion / gradient bucketing (paper Sections V-C and V-E): small
// tensors destined for the same (rank, communicator, op, reduction, root,
// dtype) are packed into one bandwidth-optimal buffer and issued as a single
// collective. A bucket flushes when it reaches B bytes (`buffer_bytes`) or
// when T microseconds (`flush_timeout_us`) elapse after its first tensor
// arrives. MCR-DL's cross-backend twist: a timeout flush means the buffer did
// NOT fill (bandwidth unsaturated), so other backends' pending buckets on the
// same rank are flushed too and the transfers overlap across backends.
//
// Historically this layer admitted AllReduce only; `FusionConfig::ops` now
// selects which collectives are bucketed (AllReduce, Reduce, Broadcast — the
// ops whose payload coalesces into one contiguous buffer with a pure
// slice-back). ResNet-style `grad_buckets` workloads model the same batching
// from the caller side; this is the runtime-side equivalent.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/backends/backend.h"

namespace mcrdl {

struct FusionConfig {
  bool enabled = false;
  std::size_t buffer_bytes = 4 << 20;      // B: flush when this full
  SimTime flush_timeout_us = 50.0;         // T: flush this long after first add
  std::size_t max_tensor_bytes = 64 << 10; // larger tensors bypass fusion
  bool cross_backend_overlap = true;
  // Collectives admitted into buckets. Only AllReduce, Reduce and Broadcast
  // are bucketable (contiguous pack + slice-back); set_config rejects others.
  std::vector<OpType> ops{OpType::AllReduce};
};

class FusionManager {
 public:
  FusionManager(ClusterContext* cluster, FusionConfig config);
  // Drops the completion of every batch still unflushed.
  ~FusionManager();

  const FusionConfig& config() const { return config_; }
  void set_config(FusionConfig config);

  // True if `op` is in the configured bucketable set (a bit mask read by
  // every dispatch).
  bool admits(OpType op) const { return (admit_mask_ >> static_cast<unsigned>(op)) & 1u; }

  // True if this (op, tensor) should go through a fusion bucket.
  bool eligible(OpType op, const Tensor& t) const;
  // Back-compat shorthand for the original AllReduce-only admission.
  bool eligible(const Tensor& t) const { return eligible(OpType::AllReduce, t); }

  // Adds the tensor to the matching bucket and returns a Work that completes
  // when the fused collective containing it does (with the result sliced
  // back into `t`). `root` is ignored for AllReduce (buckets are keyed on it
  // for rooted ops so different roots never coalesce).
  Work submit(Comm* comm, int rank, OpType op, Tensor t, ReduceOp rop, int root);
  Work all_reduce(Comm* comm, int rank, Tensor t, ReduceOp op) {
    return submit(comm, rank, OpType::AllReduce, std::move(t), op, /*root=*/-1);
  }

  // Flushes every pending bucket of one rank (used by synchronize()).
  void flush_all(int rank);

  // --- statistics -----------------------------------------------------------
  int flush_count() const { return flush_count_; }
  int timeout_flush_count() const { return timeout_flush_count_; }
  int fused_tensor_count() const { return fused_tensor_count_; }
  int overlap_flush_count() const { return overlap_flush_count_; }

 private:
  struct PendingFusion;
  class FusionWork;
  // Buckets are keyed per (rank, communicator, op, reduce-op, root, dtype);
  // root is normalized to -1 for unrooted ops.
  using Key = std::tuple<int, Comm*, int, int, int, int>;

  struct Batch {
    Comm* comm = nullptr;
    int rank = 0;
    OpType op = OpType::AllReduce;
    ReduceOp rop = ReduceOp::Sum;
    int root = -1;
    DType dtype = DType::F32;
    std::vector<Tensor> tensors;
    std::vector<SimTime> posted;   // per-entry submit instants, for latency billing
    std::int64_t total_numel = 0;
    std::size_t bytes = 0;
    bool any_phantom = false;
    std::uint64_t generation = 0;  // invalidates stale timeout events
    bool timer_armed = false;
    std::uint64_t timer_id = 0;    // scheduler event id of the armed timeout
    std::shared_ptr<PendingFusion> pending;
  };

  static std::uint32_t compute_admit_mask(const FusionConfig& config);
  void flush_batch(const Key& key, Batch& batch);
  void flush_if_pending(const Key& key);
  void on_timeout(const Key& key, std::uint64_t generation);

  ClusterContext* cluster_;
  FusionConfig config_;
  // Mirror of config_.ops for the dispatch hot path: the admitted-op bit
  // mask (OpType fits in 32 bits).
  std::uint32_t admit_mask_ = 0;
  std::map<Key, Batch> batches_;
  int flush_count_ = 0;
  int timeout_flush_count_ = 0;
  int fused_tensor_count_ = 0;
  int overlap_flush_count_ = 0;
};

}  // namespace mcrdl
