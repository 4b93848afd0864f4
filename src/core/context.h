// MCR-DL's public interface — the C++ equivalent of the paper's Listing 1.
//
// McrDl is the cluster-wide runtime: it owns the initialised backends, the
// static tuning table behind the "auto" backend string, and the optimisation
// layers (tensor fusion, compression, logging). Api is the thin per-rank
// facade the SPMD program calls; every operation takes the target backend's
// name first, exactly like the paper's API:
//
//   mcr.init({"nccl", "mv2-gdr"});
//   cluster.run_spmd([&](int rank) {
//     Api api = mcr.on(rank);
//     Work h = api.all_reduce("nccl", x, ReduceOp::Sum, /*async_op=*/true);
//     Work g = api.all_to_all_single("mv2-gdr", out, in, /*async_op=*/true);
//     h->wait(); g->wait();
//     api.synchronize();
//   });
//
// Passing "auto" routes the operation through the loaded tuning table
// (Section V-F). Operations a backend lacks natively are emulated
// transparently (Section V-B). Sub-communicators come from Api::group().
//
// Every Api method is a thin constructor of an OpRequest descriptor handed to
// the runtime's OpPipeline (src/core/op_pipeline.h); tuning, fusion,
// compression, fault routing, emulation and logging are pipeline stages, not
// per-op code.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/backends/backend.h"
#include "src/coll/composite.h"
#include "src/core/compression.h"
#include "src/core/fusion.h"
#include "src/core/logger.h"
#include "src/fault/checkpoint.h"
#include "src/fault/failover.h"
#include "src/tune/online_tuner.h"
#include "src/tune/tuning.h"

namespace mcrdl {

struct McrDlOptions {
  FusionConfig fusion;
  CompressionConfig compression;
  bool logging_enabled = false;
  // Host-side cost added to every MCR-DL call; models the thin Python layer
  // over the C++ backbone (paper C3 / Figure 7).
  SimTime per_call_overhead_us = 0.0;
  // Opt-in fault injection + retry/failover policies (src/fault/). Disabled
  // by default: no plan is installed and every operation issues exactly once
  // on its resolved backend, bit-identical to a build without the subsystem.
  fault::FaultOptions fault;
  // Opt-in online adaptive tuning (src/tune/online_tuner.h). Disabled by
  // default: "auto" resolves through the static table exactly as before —
  // the golden traces pin that the disabled tuner is byte-identical. When
  // enabled, the tuner becomes the resolution authority behind "auto",
  // seeded by the static table as a prior and fed by observed latencies.
  tune::OnlineTunerConfig online_tuning;
  // Opt-in composite collectives (src/coll/): hierarchical two-level
  // allreduce, reduce-scatter+allgather decomposition, and the overlap
  // scheduler interleaving chunks of independent composites. Disabled by
  // default: composite strings are rejected like unknown backends, the
  // pipeline bypasses its coll stage, and runs stay byte-identical.
  coll::CollConfig coll;
};

class Api;
class OpPipeline;

class McrDl {
 public:
  explicit McrDl(ClusterContext* cluster, McrDlOptions options = {});
  ~McrDl();
  McrDl(const McrDl&) = delete;
  McrDl& operator=(const McrDl&) = delete;

  // --- lifecycle (Listing 1: init / finalize / get_backends) ---------------
  void init(const std::vector<std::string>& backend_names);
  void finalize();
  bool initialized() const { return initialized_; }
  const std::vector<std::string>& get_backends() const { return backend_order_; }
  Backend* backend(const std::string& name) const;
  bool has_backend(const std::string& name) const;

  // --- tuning ("auto" backend) ----------------------------------------------
  void set_tuning_table(TuningTable table) {
    tuning_table_ = std::move(table);
    // The static table is the online tuner's prior regardless of whether it
    // was installed before or after init().
    if (tuner_ != nullptr) tuner_->seed_prior(*tuning_table_);
  }
  const std::optional<TuningTable>& tuning_table() const { return tuning_table_; }
  // Resolves a backend string, dispatching "auto" through the online tuner
  // when enabled, else the static tuning table. `rank` is the caller's
  // global rank (the tuner aligns its per-key decision sequence across
  // ranks with it; irrelevant for static resolution).
  Backend* resolve(const std::string& name, OpType op, std::size_t bytes, int world,
                   int rank = 0) const;
  // The string-level half of resolve(): returns the chosen backend *name*
  // without requiring it to be an initialised backend — with composites
  // enabled the choice may be a composite algorithm string ("hier:nccl+mpi",
  // "rsag"), offered to the online tuner as extra "auto" arms when
  // CollConfig::tuner_arms is set. resolve() is resolve_string() + backend().
  std::string resolve_string(const std::string& name, OpType op, std::size_t bytes, int world,
                             int rank = 0) const;

  // Measurement-driven "auto" resolution; non-null only when
  // options.online_tuning.enabled (created by init()).
  tune::OnlineTuner* online_tuner() const { return tuner_.get(); }

  // --- optimisation layers ----------------------------------------------------
  CommLogger& logger() { return logger_; }
  FusionManager& fusion() { return *fusion_; }
  CompressionLayer& compression() { return *compression_; }
  McrDlOptions& options() { return options_; }

  // Health-aware routing; non-null only when options.fault.enabled.
  fault::FailoverRouter* failover() const { return failover_.get(); }

  // Elastic rank-loss recovery (quiesce -> shrink -> resume, and the grow
  // path quiesce -> grow -> resume). Armed by init() when the fault plan
  // contains rank_loss/rank_rejoin specs or spare ranks; disarmed otherwise.
  fault::RecoveryManager& recovery() const;

  // Deterministic checkpoint/restore of the runtime's restorable state.
  // init() registers a "recovery" section (epochs, lost set, resilience
  // counters) when faults are enabled and a "tuner" section (learned arms,
  // quarantine state) when online tuning is enabled; other subsystems (e.g.
  // the serving scheduler) register their own sections against this store.
  fault::CheckpointStore& checkpoint() { return checkpoint_; }

  // The operation pipeline every Api call executes through. Exposed so
  // callers can inspect the stage order or insert custom stages.
  OpPipeline& pipeline() { return *pipeline_; }

  // --- composite collectives (src/coll/) --------------------------------------
  // True once init() created the coll subsystem (options.coll.enabled).
  bool coll_enabled() const { return overlap_ != nullptr; }
  // Per-rank chain registry/driver; non-null only when coll_enabled().
  coll::OverlapScheduler* overlap_scheduler() const { return overlap_.get(); }
  // The launch seam handed to coll::launch. A reference to a long-lived
  // member: composite phase closures capture it by reference and may run long
  // after the coll stage's frame returned.
  const coll::LaunchContext& coll_launch() const { return launch_ctx_; }
  // Validates a parsed composite against the initialised backends and fills
  // defaults (a bare "rsag" gets the first initialised backend). Throws
  // InvalidArgument when a named backend was not passed to init().
  void validate_composite(coll::CompositeSpec& spec) const;

  ClusterContext* cluster() const { return cluster_; }

  // Per-rank facade over the world communicator.
  Api on(int rank);

 private:
  friend class Api;

  ClusterContext* cluster_;
  McrDlOptions options_;
  bool initialized_ = false;
  std::vector<std::string> backend_order_;
  std::map<std::string, std::unique_ptr<Backend>> backends_;
  std::optional<TuningTable> tuning_table_;
  std::unique_ptr<tune::OnlineTuner> tuner_;
  CommLogger logger_;
  std::unique_ptr<FusionManager> fusion_;
  std::unique_ptr<CompressionLayer> compression_;
  std::unique_ptr<fault::FailoverRouter> failover_;
  fault::CheckpointStore checkpoint_;
  std::unique_ptr<OpPipeline> pipeline_;
  std::unique_ptr<coll::OverlapScheduler> overlap_;
  coll::LaunchContext launch_ctx_;
  // Recovery-hook registrations waking blocked chain drivers on epoch bumps.
  std::uint64_t coll_drain_hook_ = 0;
  std::uint64_t coll_grow_hook_ = 0;
};

// The per-rank API handle (cheap to copy). All peers/roots are expressed in
// the handle's communicator group-rank space; group() rebinds the handle to
// a sub-communicator.
class Api {
 public:
  Api(McrDl* ctx, int rank, std::vector<int> group = {});

  int rank() const { return rank_; }
  McrDl* context() const { return ctx_; }
  // Size of this handle's communicator (the whole cluster unless group()ed).
  int world_size() const {
    return group_.empty() ? ctx_->cluster()->world_size() : static_cast<int>(group_.size());
  }
  // Listing 1: get_rank/get_size take the backend name (all backends share
  // the communicator layout here, as in PyTorch process groups).
  int get_rank(const std::string& backend) const;
  int get_size(const std::string& backend) const;

  // Rebinds to a sub-communicator over the given global ranks.
  Api group(std::vector<int> ranks) const;

  // Completes all outstanding work this rank posted (flushes fusion first).
  void synchronize();
  void synchronize(const std::string& backend);

  // --- Listing 1 operations ---------------------------------------------------
  Work all_reduce(const std::string& backend, Tensor tensor, ReduceOp op = ReduceOp::Sum,
                  bool async_op = false);
  Work broadcast(const std::string& backend, Tensor tensor, int root, bool async_op = false);
  Work reduce(const std::string& backend, Tensor tensor, int root, ReduceOp op = ReduceOp::Sum,
              bool async_op = false);
  Work all_gather(const std::string& backend, Tensor output, Tensor input, bool async_op = false);
  Work all_gatherv(const std::string& backend, Tensor output, Tensor input,
                   std::vector<int> recv_counts, std::vector<int> recv_displs,
                   bool async_op = false);
  Work gather(const std::string& backend, Tensor output, Tensor input, int root,
              bool async_op = false);
  Work gatherv(const std::string& backend, Tensor output, Tensor input, int root,
               std::vector<int> recv_counts, std::vector<int> recv_displs, bool async_op = false);
  Work scatter(const std::string& backend, Tensor output, Tensor input, int root,
               bool async_op = false);
  Work scatterv(const std::string& backend, Tensor output, Tensor input, int root,
                std::vector<int> send_counts, std::vector<int> send_displs,
                bool async_op = false);
  Work reduce_scatter(const std::string& backend, Tensor output, Tensor input,
                      ReduceOp op = ReduceOp::Sum, bool async_op = false);
  Work all_to_all_single(const std::string& backend, Tensor output, Tensor input,
                         bool async_op = false);
  Work all_to_all(const std::string& backend, TensorList outputs, TensorList inputs,
                  bool async_op = false);
  Work all_to_allv(const std::string& backend, Tensor output, Tensor input,
                   std::vector<int> send_counts, std::vector<int> send_displs,
                   std::vector<int> recv_counts, std::vector<int> recv_displs,
                   bool async_op = false);
  Work barrier(const std::string& backend, bool async_op = false);
  Work send(const std::string& backend, Tensor tensor, int dst, bool async_op = false);
  Work recv(const std::string& backend, Tensor tensor, int src, bool async_op = false);

 private:
  Comm* comm_for(Backend* b) const;
  // Packs per-op arguments into the request's common fields and hands it to
  // the runtime's OpPipeline.
  Work dispatch(OpRequest req) const;

  McrDl* ctx_;
  int rank_;
  std::vector<int> group_;  // empty = world
};

}  // namespace mcrdl
