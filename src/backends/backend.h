// The "backend as a class" layer (paper Table I, Section V-B).
//
// A Backend is one communication library instance over the whole simulated
// cluster (e.g. "nccl"). It owns per-rank communication-stream pools (for
// stream-aware libraries) and hands out Comm objects — communicators over a
// rank subset — on which the actual operations are posted. Two families:
//
//   * StreamBackend (NCCL, SCCL): operations travel through a communication
//     stream; input readiness and completion are CUDA events/gates; wait()
//     on the returned Work is a stream-level dependency.
//   * HostMpiBackend (MVAPICH2-GDR, OpenMPI): CUDA-aware MPI semantics; the
//     host posts operations, blocking calls suspend the host actor, and
//     non-blocking calls return MPI_Request-like handles.
//
// Comm methods take the caller's *global* rank (the per-rank binding lives
// in the MCR-DL core facade); roots and peers are group-rank indices.
// Operations the library does not support natively throw
// UnsupportedOperation — the MCR-DL emulation layer builds them from native
// primitives one level up.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/backends/cluster.h"
#include "src/backends/engine.h"
#include "src/backends/op_request.h"
#include "src/backends/work.h"
#include "src/net/cost.h"
#include "src/tensor/tensor.h"

namespace mcrdl {

class Backend;

// One communicator (rank group) of one backend.
class Comm {
 public:
  Comm(Backend* backend, std::vector<int> ranks);

  Backend* backend() const { return backend_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  const std::vector<int>& ranks() const { return ranks_; }
  // Dense index of a global rank within this communicator.
  int group_rank(int global_rank) const;
  bool contains(int global_rank) const;

  // --- collectives (PyTorch-distributed calling conventions) --------------
  // In-place allreduce on `tensor`. `launch_discount_us` is used by
  // persistent collectives to amortise setup cost (src/core/persistent.h).
  Work all_reduce(int rank, Tensor tensor, ReduceOp op, bool async_op,
                  double launch_discount_us = 0.0);
  Work broadcast(int rank, Tensor tensor, int root, bool async_op);
  // Reduction lands in `tensor` on root (in-place like torch.reduce).
  Work reduce(int rank, Tensor tensor, int root, ReduceOp op, bool async_op);
  // `output` holds size() blocks of input.numel() elements.
  Work all_gather(int rank, Tensor output, Tensor input, bool async_op);
  Work all_gatherv(int rank, Tensor output, Tensor input, std::vector<int> recv_counts,
                   std::vector<int> recv_displs, bool async_op);
  Work gather(int rank, Tensor output, Tensor input, int root, bool async_op);
  Work gatherv(int rank, Tensor output, Tensor input, int root, std::vector<int> recv_counts,
               std::vector<int> recv_displs, bool async_op);
  Work scatter(int rank, Tensor output, Tensor input, int root, bool async_op);
  Work scatterv(int rank, Tensor output, Tensor input, int root, std::vector<int> send_counts,
                std::vector<int> send_displs, bool async_op);
  Work reduce_scatter(int rank, Tensor output, Tensor input, ReduceOp op, bool async_op);
  Work all_to_all_single(int rank, Tensor output, Tensor input, bool async_op);
  Work all_to_all(int rank, TensorList outputs, TensorList inputs, bool async_op);
  Work all_to_allv(int rank, Tensor output, Tensor input, std::vector<int> send_counts,
                   std::vector<int> send_displs, std::vector<int> recv_counts,
                   std::vector<int> recv_displs, bool async_op);
  Work barrier(int rank, bool async_op);

  // --- point-to-point -------------------------------------------------------
  Work send(int rank, Tensor tensor, int dst, bool async_op);
  Work recv(int rank, Tensor tensor, int src, bool async_op);

  // Generic entry point: dispatches an OpRequest onto the matching native
  // method above. Non-native operations still throw UnsupportedOperation —
  // emulation::issue (src/core/emulation.h) is the layer that rewrites them.
  Work issue(int rank, const OpRequest& req);

  backends_detail::CollectiveEngine& engine() { return engine_; }

 private:
  friend class Backend;

  Work submit(int rank, backends_detail::OpDesc desc, backends_detail::ArrivalSlot slot,
              bool async_op);
  void validate_root(int root) const;
  // Charges injected straggler/slowdown time to `rank`'s host launch path
  // (no-op unless a fault plan is active — see src/fault/injector.h).
  void inject_launch_delay(int global_rank);

  Backend* backend_;
  std::vector<int> ranks_;
  std::map<int, int> group_rank_;  // global rank -> dense index
  backends_detail::CollectiveEngine engine_;
  backends_detail::P2pEngine p2p_;
};

class Backend {
 public:
  Backend(ClusterContext* cluster, net::BackendProfile profile);
  virtual ~Backend() = default;

  const std::string& name() const { return profile_.name; }
  const std::string& display_name() const { return profile_.display_name; }
  const net::BackendProfile& profile() const { return profile_; }
  ClusterContext* cluster() const { return cluster_; }
  bool stream_synchronized() const { return profile_.stream_aware; }

  // Lifecycle (paper API: init/finalize/synchronize per backend).
  void init();
  void finalize();
  bool initialized() const { return initialized_; }
  // Completes all outstanding operations posted by `rank` on this backend.
  void synchronize(int rank);

  // The all-ranks communicator.
  Comm* world();
  // A cached sub-communicator over the given global ranks.
  Comm* group(const std::vector<int>& ranks);

  // Number of communication streams per rank (stream-aware backends).
  static constexpr int kStreamPoolSize = 4;
  // Messages at or below this size round-robin across the pool; larger ones
  // serialise on stream 0 (concurrent large transfers are bandwidth-bound
  // and gain nothing — paper Section V-C).
  static constexpr std::size_t kConcurrentSmallMessageLimit = 64 * 1024;

 protected:
  friend class Comm;

  // Posts a collective with backend-family-specific readiness/completion
  // wiring; returns the caller's Work handle.
  virtual Work post_collective(Comm& comm, int global_rank, const backends_detail::OpDesc& desc,
                               backends_detail::ArrivalSlot slot, bool async_op) = 0;
  virtual Work post_p2p(Comm& comm, int global_rank, bool is_send,
                        std::shared_ptr<backends_detail::P2pOp> op, std::size_t bytes,
                        bool async_op) = 0;

  void require_initialized() const;
  // Tracks an operation for synchronize().
  void track(int rank, const Work& work);

  ClusterContext* cluster_;
  net::BackendProfile profile_;
  bool initialized_ = false;
  // Communicators are created lazily, on first use.
  std::unique_ptr<Comm> world_;
  std::map<std::vector<int>, std::unique_ptr<Comm>> groups_;
  std::vector<std::vector<Work>> outstanding_;  // per global rank
};

// NCCL/SCCL-style stream-synchronised backend.
class StreamBackend : public Backend {
 public:
  StreamBackend(ClusterContext* cluster, net::BackendProfile profile);

  // Picks the communication stream for a message of `bytes` on `rank`.
  sim::Stream* comm_stream(int rank, std::size_t bytes);

 protected:
  Work post_collective(Comm& comm, int global_rank, const backends_detail::OpDesc& desc,
                       backends_detail::ArrivalSlot slot, bool async_op) override;
  Work post_p2p(Comm& comm, int global_rank, bool is_send,
                std::shared_ptr<backends_detail::P2pOp> op, std::size_t bytes,
                bool async_op) override;

 private:
  std::vector<std::vector<sim::Stream*>> pools_;  // [rank][stream]
  std::vector<int> next_stream_;                  // round-robin cursor per rank
};

// CUDA-aware MPI backend synchronised on the host thread.
class HostMpiBackend : public Backend {
 public:
  HostMpiBackend(ClusterContext* cluster, net::BackendProfile profile);

 protected:
  Work post_collective(Comm& comm, int global_rank, const backends_detail::OpDesc& desc,
                       backends_detail::ArrivalSlot slot, bool async_op) override;
  Work post_p2p(Comm& comm, int global_rank, bool is_send,
                std::shared_ptr<backends_detail::P2pOp> op, std::size_t bytes,
                bool async_op) override;
};

// Creates a backend by registry name: "nccl", "sccl", "mv2-gdr", "ompi".
std::unique_ptr<Backend> make_backend(const std::string& name, ClusterContext* cluster);
// Names accepted by make_backend, in the paper's order.
std::vector<std::string> available_backend_names();

}  // namespace mcrdl
