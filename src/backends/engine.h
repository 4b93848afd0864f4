// Rendezvous machinery shared by every simulated backend.
//
// A collective is an all-ranks rendezvous: each rank posts its payload
// (ArrivalSlot) at the communicator's next sequence number, then signals
// readiness when its input data is actually available (when its stream
// reaches the operation for stream-aware backends, or when the producing
// default-stream work finishes for host-synchronised MPI). Once every rank
// is ready, the operation's duration comes from the backend's CostModel, and
// at the completion time the engine applies the real data effect (reduction
// math / block shuffles) to all materialised tensors, opens the stream gates
// and notifies host waiters.
//
// Sequence numbers also give NCCL-accurate misuse detection: ranks issuing
// different operations at the same position on one communicator raise
// CollectiveMismatch instead of silently hanging.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/completion.h"
#include "src/fault/injector.h"
#include "src/net/cost.h"
#include "src/sim/device.h"
#include "src/sim/scheduler.h"
#include "src/tensor/tensor.h"

namespace mcrdl::backends_detail {

// One rank's payload for one collective.
struct ArrivalSlot {
  Tensor input;
  Tensor output;
  TensorList inputs;   // all_to_all list form
  TensorList outputs;  // all_to_all list form
  std::vector<int> send_counts, send_displs;  // element counts (v-collectives)
  std::vector<int> recv_counts, recv_displs;
};

// What all ranks must agree on at one sequence position.
struct OpDesc {
  OpType op = OpType::Barrier;
  std::size_t bytes = 0;  // cost-model payload (per-rank, PyTorch convention)
  int root = 0;           // group-rank of the root for rooted ops
  ReduceOp rop = ReduceOp::Sum;
  // Launch-overhead discount for persistent collectives (µs subtracted from
  // the cost model's fixed per-op term, floored at 10% of the base cost).
  double launch_discount_us = 0.0;
};

// Applies the data semantics of `op` across all ranks' slots. Slots with
// phantom/undefined tensors are skipped (timing-only workloads). Exposed for
// direct unit testing.
void apply_collective(const OpDesc& desc, std::vector<ArrivalSlot>& slots);

// Payloads at or below this size are latency-bound and may overlap on the
// wire; larger collectives serialise on their communicator's channel
// (matching MPI progress and NCCL per-stream semantics — and the paper's
// observation that concurrent large messages are bandwidth-bound and gain
// nothing from extra streams).
inline constexpr std::size_t kWireSerializeThreshold = 64 * 1024;

// Given (ready time, duration, payload) returns the wire start time,
// accounting for channel contention.
using ChannelFn = std::function<SimTime(SimTime, SimTime, std::size_t)>;

// The host-visible lifecycle Rendezvous and P2pOp share: an operation that
// ends exactly once, completing (its Completion fires) or failing (it is
// dropped; src/common/completion.h).
class HostOp {
 public:
  virtual ~HostOp() = default;
  HostOp(const HostOp&) = delete;
  HostOp& operator=(const HostOp&) = delete;

  bool done() const { return completion_.fired(); }
  SimTime complete_time() const { return complete_time_; }
  // When the wire time actually began (all participants ready + channel
  // free).
  SimTime exec_start_time() const { return exec_start_; }
  bool failed() const { return error_ != nullptr; }
  std::exception_ptr error() const { return error_; }
  // Host-side block until completion (MPI discipline). Rethrows the stored
  // error if the operation failed instead of completing.
  void wait_done();
  // Runs fn (under the baton) at completion, or inline if already complete.
  void on_complete(std::function<void()> fn);

  // --- fault injection (src/fault/) ----------------------------------------
  // Marks the operation failed: stores the error and wakes host waiters so
  // wait_done() rethrows it from actor context. Safe to call from a
  // timed-event callback (never throws; gates stay closed; no data effects
  // are applied). No-op once done or already failed.
  void fail(std::exception_ptr err);
  // Like fail(), but also opens the operation's stream gates — the
  // ncclCommAbort model used by the elastic-recovery quiesce: parked
  // communication streams unwedge while host waiters still observe the
  // error.
  void cancel(std::exception_ptr err);

 protected:
  explicit HostOp(sim::Scheduler* sched);

  sim::Scheduler* sched_;
  SimTime exec_start_ = 0.0;
  SimTime complete_time_ = 0.0;
  Completion completion_;
  sim::SimCondition done_cond_;
  std::exception_ptr error_;

 private:
  // The engines drop the operations they still hold at teardown.
  friend class CollectiveEngine;
  friend class P2pEngine;
  void terminate(std::exception_ptr err, bool open_gates);
  virtual void open_gates() = 0;
};

// An all-ranks collective at one sequence position of a communicator.
class Rendezvous : public HostOp, public std::enable_shared_from_this<Rendezvous> {
 public:
  Rendezvous(sim::Scheduler* sched, int expected, OpDesc desc,
             std::function<SimTime()> duration_fn, ChannelFn channel_fn = {});

  const OpDesc& desc() const { return desc_; }

  // Registers rank `idx`'s payload. Each rank posts exactly once.
  void post(int idx, ArrivalSlot slot);

  // Declares rank `idx`'s input ready at the current virtual time. The last
  // ready rank triggers cost evaluation and schedules completion.
  void mark_ready(int idx);

  // Stream-aware backends park their communication stream behind this gate;
  // it opens at the completion time.
  const std::shared_ptr<sim::StreamGate>& gate(int idx);

  // True once every participant has signalled readiness — the wire phase
  // has begun and completion is already scheduled. Quiesce drains skip
  // started rendezvous: packets in flight deliver, consistently everywhere.
  bool started() const { return ready_ >= expected_; }
  int posted_count() const { return posted_; }
  // Group-rank indices that did / did not reach the rendezvous (for the
  // watchdog's who-arrived diagnostic).
  std::vector<int> posted_indices() const;
  std::vector<int> missing_indices() const;

 private:
  // Applies the data effect, runs the completion callbacks, then opens the
  // gates and wakes host waiters.
  void finish();
  void open_gates() override;

  OpDesc desc_;
  int expected_;
  int posted_ = 0;
  int ready_ = 0;
  SimTime ready_time_ = 0.0;
  std::function<SimTime()> duration_fn_;
  ChannelFn channel_fn_;
  std::vector<ArrivalSlot> slots_;
  std::vector<bool> slot_posted_;
  std::vector<bool> slot_ready_;
  std::vector<std::shared_ptr<sim::StreamGate>> gates_;
};

// Per-communicator collective sequencing: each rank's n-th call joins the
// n-th rendezvous; descriptors must match across ranks.
//
// Fault injection: when constructed with a FaultInjector, every rendezvous
// is classified exactly once — by the first-arriving rank, at creation — as
// doomed (injected outage or transient fault) or live (optionally guarded
// by a watchdog deadline). All joiners of a doomed rendezvous observe the
// same stored error, so communicator sequence numbers advance uniformly
// across ranks and retries stay aligned.
class CollectiveEngine {
 public:
  CollectiveEngine(sim::Scheduler* sched, net::CostModel cost_model, net::CommShape shape,
                   int size, std::vector<int> global_ranks = {},
                   fault::FaultInjector* faults = nullptr, std::string backend_name = "");
  ~CollectiveEngine();  // unregisters its hooks, drops still-pending rendezvous
  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  // Joins rank idx's next collective; creates the rendezvous on first
  // arrival and validates the descriptor on subsequent ones. Throws the
  // injected error (after consuming the sequence number) when the
  // rendezvous is doomed.
  std::shared_ptr<Rendezvous> join(int idx, const OpDesc& desc, ArrivalSlot slot);

  const net::CostModel& cost_model() const { return cost_model_; }
  const net::CommShape& shape() const { return shape_; }
  int size() const { return size_; }

 private:
  // Recovery quiesce hook: cancels pending rendezvous whose membership
  // includes a lost rank (unless their wire phase already started). Returns
  // the number of rendezvous cancelled.
  std::uint64_t drain_lost(const std::vector<int>& lost);
  // Recovery grow hook: when a rejoining rank is a member, this
  // communicator's sequence counters drifted while it was dead (survivors
  // consumed sequence numbers on doomed joins the dead rank never made), so
  // pending non-started rendezvous are cancelled for replay, the pending
  // table is cleared, and every rank's next_seq_ restarts at zero — the
  // whole membership re-sequences together on the grown epoch. Returns the
  // number of rendezvous cancelled.
  std::uint64_t drain_rejoined(const std::vector<int>& rejoined);
  // Both drains: cancels every pending rendezvous whose wire phase has not
  // started (`why` words the error), clears the table and restarts every
  // rank's sequence at zero.
  std::uint64_t cancel_and_resequence(const std::function<std::string(OpType)>& why);

  sim::Scheduler* sched_;
  net::CostModel cost_model_;
  net::CommShape shape_;
  int size_;
  std::vector<int> global_ranks_;
  fault::FaultInjector* faults_;
  std::string backend_name_;
  std::vector<std::uint64_t> next_seq_;
  std::map<std::uint64_t, std::shared_ptr<Rendezvous>> pending_;
  SimTime channel_busy_until_ = 0.0;
  std::uint64_t drain_id_ = 0;
  std::uint64_t grow_id_ = 0;
};

// A matched send/recv pair (two-party rendezvous).
//
// Fault injection: a failed op is still enqueued for FIFO matching (both
// sides of the pair must observe the same failed attempt) but never
// transfers data; post_send/post_recv rethrow its error.
class P2pOp : public HostOp, public std::enable_shared_from_this<P2pOp> {
 public:
  P2pOp(sim::Scheduler* sched, std::function<SimTime()> duration_fn);

  void set_send(Tensor t);
  void set_recv(Tensor t);
  void mark_send_ready();
  void mark_recv_ready();

  const std::shared_ptr<sim::StreamGate>& send_gate() { return send_gate_; }
  const std::shared_ptr<sim::StreamGate>& recv_gate() { return recv_gate_; }

 private:
  void maybe_finish();
  void open_gates() override;

  std::function<SimTime()> duration_fn_;
  Tensor send_tensor_, recv_tensor_;
  bool have_send_ = false, have_recv_ = false;
  bool send_ready_ = false, recv_ready_ = false;
  std::shared_ptr<sim::StreamGate> send_gate_, recv_gate_;
};

// FIFO tag-matching of sends and recvs per (src, dst) pair.
//
// Fault injection mirrors CollectiveEngine: each pair is classified once at
// creation (by whichever side arrives first, matched against OpType::Send
// specs), so both endpoints of a doomed pair fail the same attempt.
class P2pEngine {
 public:
  P2pEngine(sim::Scheduler* sched, net::CostModel cost_model, std::vector<int> global_ranks,
            fault::FaultInjector* faults = nullptr, std::string backend_name = "");
  ~P2pEngine();  // unregisters its hooks, drops still-unmatched ops
  P2pEngine(const P2pEngine&) = delete;
  P2pEngine& operator=(const P2pEngine&) = delete;

  // src/dst are group-rank indices. Returns the matched (or newly created)
  // pairwise operation; caller wires readiness signals and tensors.
  std::shared_ptr<P2pOp> post_send(int src, int dst, const Tensor& t);
  std::shared_ptr<P2pOp> post_recv(int dst, int src, Tensor t);

 private:
  std::shared_ptr<P2pOp> match(int src, int dst, bool is_send, std::size_t bytes);
  // The global ranks of a queue key's (src, dst) pair that are in `ranks`.
  std::vector<int> endpoints_in(std::int64_t key, const std::vector<int>& ranks) const;
  // Recovery quiesce hook: cancels unmatched queued ops whose endpoint is a
  // lost rank. Matched pairs are in flight and left to complete.
  std::uint64_t drain_lost(const std::vector<int>& lost);
  // Recovery grow hook: clears the FIFO queues at every (src, dst) key that
  // touches a rejoining rank — stale doomed entries queued while the rank
  // was dead would otherwise match fresh post-rejoin traffic. Returns the
  // number of queued ops cancelled.
  std::uint64_t drain_rejoined(const std::vector<int>& rejoined);

  sim::Scheduler* sched_;
  net::CostModel cost_model_;
  std::vector<int> global_ranks_;
  fault::FaultInjector* faults_;
  std::string backend_name_;
  // Key: src * size + dst. Queues of operations where only one side arrived.
  std::map<std::int64_t, std::vector<std::shared_ptr<P2pOp>>> pending_sends_;
  std::map<std::int64_t, std::vector<std::shared_ptr<P2pOp>>> pending_recvs_;
  std::uint64_t drain_id_ = 0;
  std::uint64_t grow_id_ = 0;
};

}  // namespace mcrdl::backends_detail
