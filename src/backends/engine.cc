#include "src/backends/engine.h"

#include <algorithm>
#include <sstream>

#include "src/fault/recovery.h"

namespace mcrdl::backends_detail {

// ---------------------------------------------------------------------------
// Data application
// ---------------------------------------------------------------------------

namespace {

bool usable(const Tensor& t) { return t.defined() && t.materialized(); }

// Element count of rank r's block when a buffer of n elements is split
// evenly across `size` ranks.
std::int64_t block_count(std::int64_t n, int size) { return n / size; }

void apply_all_reduce(const OpDesc& desc, std::vector<ArrivalSlot>& slots) {
  // Accumulate into a scratch clone, then distribute (in-place semantics:
  // every rank's `input` doubles as its output, like torch.all_reduce).
  const int size = static_cast<int>(slots.size());
  Tensor acc;
  for (auto& s : slots) {
    if (!usable(s.input)) continue;
    if (!acc.defined()) {
      acc = s.input.clone();
    } else {
      acc.reduce_inplace(s.input, desc.rop);
    }
  }
  if (!acc.defined()) return;
  if (desc.rop == ReduceOp::Avg) acc.scale(1.0 / size);
  for (auto& s : slots) {
    if (usable(s.input)) s.input.copy_from(acc);
  }
}

void apply_reduce(const OpDesc& desc, std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  Tensor acc;
  for (auto& s : slots) {
    if (!usable(s.input)) continue;
    if (!acc.defined()) {
      acc = s.input.clone();
    } else {
      acc.reduce_inplace(s.input, desc.rop);
    }
  }
  if (!acc.defined()) return;
  if (desc.rop == ReduceOp::Avg) acc.scale(1.0 / size);
  ArrivalSlot& root = slots[static_cast<std::size_t>(desc.root)];
  Tensor& dst = root.output.defined() ? root.output : root.input;
  if (usable(dst)) dst.copy_from(acc);
}

void apply_broadcast(const OpDesc& desc, std::vector<ArrivalSlot>& slots) {
  const Tensor& src = slots[static_cast<std::size_t>(desc.root)].input;
  if (!usable(src)) return;
  for (std::size_t r = 0; r < slots.size(); ++r) {
    if (static_cast<int>(r) == desc.root) continue;
    if (usable(slots[r].input)) slots[r].input.copy_from(src);
  }
}

void apply_all_gather(std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  for (auto& dst : slots) {
    if (!usable(dst.output)) continue;
    const std::int64_t block = block_count(dst.output.numel(), size);
    for (int r = 0; r < size; ++r) {
      const Tensor& src = slots[static_cast<std::size_t>(r)].input;
      if (!usable(src)) continue;
      dst.output.view(r * block, std::min<std::int64_t>(block, src.numel()))
          .copy_from(src.view(0, std::min<std::int64_t>(block, src.numel())));
    }
  }
}

void apply_all_gatherv(std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  for (auto& dst : slots) {
    if (!usable(dst.output)) continue;
    for (int r = 0; r < size; ++r) {
      const ArrivalSlot& src_slot = slots[static_cast<std::size_t>(r)];
      if (!usable(src_slot.input)) continue;
      const int count = dst.recv_counts[static_cast<std::size_t>(r)];
      const int displ = dst.recv_displs[static_cast<std::size_t>(r)];
      dst.output.view(displ, count).copy_from(src_slot.input.view(0, count));
    }
  }
}

void apply_gather(const OpDesc& desc, std::vector<ArrivalSlot>& slots, bool vector_counts) {
  ArrivalSlot& root = slots[static_cast<std::size_t>(desc.root)];
  if (!usable(root.output)) return;
  const int size = static_cast<int>(slots.size());
  std::int64_t offset = 0;
  const std::int64_t block = block_count(root.output.numel(), size);
  for (int r = 0; r < size; ++r) {
    const Tensor& src = slots[static_cast<std::size_t>(r)].input;
    std::int64_t count = vector_counts ? root.recv_counts[static_cast<std::size_t>(r)] : block;
    std::int64_t displ = vector_counts ? root.recv_displs[static_cast<std::size_t>(r)] : offset;
    if (usable(src)) root.output.view(displ, count).copy_from(src.view(0, count));
    offset += count;
  }
}

void apply_scatter(const OpDesc& desc, std::vector<ArrivalSlot>& slots, bool vector_counts) {
  const ArrivalSlot& root = slots[static_cast<std::size_t>(desc.root)];
  if (!usable(root.input)) return;
  const int size = static_cast<int>(slots.size());
  std::int64_t offset = 0;
  const std::int64_t block = block_count(root.input.numel(), size);
  for (int r = 0; r < size; ++r) {
    Tensor& dst = slots[static_cast<std::size_t>(r)].output;
    std::int64_t count = vector_counts ? root.send_counts[static_cast<std::size_t>(r)] : block;
    std::int64_t displ = vector_counts ? root.send_displs[static_cast<std::size_t>(r)] : offset;
    if (usable(dst)) dst.view(0, count).copy_from(root.input.view(displ, count));
    offset += count;
  }
}

void apply_reduce_scatter(const OpDesc& desc, std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  Tensor acc;
  for (auto& s : slots) {
    if (!usable(s.input)) continue;
    if (!acc.defined()) {
      acc = s.input.clone();
    } else {
      acc.reduce_inplace(s.input, desc.rop);
    }
  }
  if (!acc.defined()) return;
  if (desc.rop == ReduceOp::Avg) acc.scale(1.0 / size);
  const std::int64_t block = block_count(acc.numel(), size);
  for (int r = 0; r < size; ++r) {
    Tensor& dst = slots[static_cast<std::size_t>(r)].output;
    if (usable(dst)) dst.view(0, block).copy_from(acc.view(r * block, block));
  }
}

void apply_all_to_all_single(std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  for (int dst = 0; dst < size; ++dst) {
    Tensor& out = slots[static_cast<std::size_t>(dst)].output;
    if (!usable(out)) continue;
    const std::int64_t block = block_count(out.numel(), size);
    for (int src = 0; src < size; ++src) {
      const Tensor& in = slots[static_cast<std::size_t>(src)].input;
      if (!usable(in)) continue;
      const std::int64_t src_block = block_count(in.numel(), size);
      out.view(src * block, block).copy_from(in.view(dst * src_block, block));
    }
  }
}

void apply_all_to_all_list(std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  for (int dst = 0; dst < size; ++dst) {
    auto& outs = slots[static_cast<std::size_t>(dst)].outputs;
    if (outs.empty()) continue;
    for (int src = 0; src < size; ++src) {
      const auto& ins = slots[static_cast<std::size_t>(src)].inputs;
      if (ins.empty()) continue;
      Tensor& out = outs[static_cast<std::size_t>(src)];
      const Tensor& in = ins[static_cast<std::size_t>(dst)];
      if (usable(out) && usable(in)) out.copy_from(in);
    }
  }
}

void apply_all_to_allv(std::vector<ArrivalSlot>& slots) {
  const int size = static_cast<int>(slots.size());
  for (int dst = 0; dst < size; ++dst) {
    ArrivalSlot& d = slots[static_cast<std::size_t>(dst)];
    if (!usable(d.output)) continue;
    for (int src = 0; src < size; ++src) {
      const ArrivalSlot& s = slots[static_cast<std::size_t>(src)];
      if (!usable(s.input)) continue;
      // src sends its send_counts[dst] elements at send_displs[dst] into
      // dst's recv_displs[src].
      const int count = s.send_counts[static_cast<std::size_t>(dst)];
      MCRDL_CHECK(count == d.recv_counts[static_cast<std::size_t>(src)])
          << "all_to_allv count mismatch between rank " << src << " and rank " << dst;
      d.output.view(d.recv_displs[static_cast<std::size_t>(src)], count)
          .copy_from(s.input.view(s.send_displs[static_cast<std::size_t>(dst)], count));
    }
  }
}

}  // namespace

void apply_collective(const OpDesc& desc, std::vector<ArrivalSlot>& slots) {
  switch (desc.op) {
    case OpType::AllReduce: apply_all_reduce(desc, slots); return;
    case OpType::Reduce: apply_reduce(desc, slots); return;
    case OpType::Broadcast: apply_broadcast(desc, slots); return;
    case OpType::AllGather: apply_all_gather(slots); return;
    case OpType::AllGatherV: apply_all_gatherv(slots); return;
    case OpType::Gather: apply_gather(desc, slots, /*vector_counts=*/false); return;
    case OpType::GatherV: apply_gather(desc, slots, /*vector_counts=*/true); return;
    case OpType::Scatter: apply_scatter(desc, slots, /*vector_counts=*/false); return;
    case OpType::ScatterV: apply_scatter(desc, slots, /*vector_counts=*/true); return;
    case OpType::ReduceScatter: apply_reduce_scatter(desc, slots); return;
    case OpType::AllToAllSingle: apply_all_to_all_single(slots); return;
    case OpType::AllToAll: apply_all_to_all_list(slots); return;
    case OpType::AllToAllV: apply_all_to_allv(slots); return;
    case OpType::Barrier: return;
    case OpType::Send:
    case OpType::Recv:
      MCRDL_CHECK(false) << "p2p ops do not go through apply_collective";
  }
}

// ---------------------------------------------------------------------------
// HostOp
// ---------------------------------------------------------------------------

HostOp::HostOp(sim::Scheduler* sched) : sched_(sched), done_cond_(sched) {}

void HostOp::wait_done() {
  done_cond_.wait([&] { return completion_.fired() || error_ != nullptr; });
  if (error_ && !completion_.fired()) std::rethrow_exception(error_);
}

void HostOp::on_complete(InlineFn fn) {
  if (auto late = completion_.add(std::move(fn))) late();
}

void HostOp::fail(std::exception_ptr err) { terminate(std::move(err), /*open_gate=*/false); }

void HostOp::cancel(std::exception_ptr err) { terminate(std::move(err), /*open_gate=*/true); }

void HostOp::terminate(std::exception_ptr err, bool open_gate) {
  MCRDL_CHECK(err != nullptr);
  if (completion_.fired() || error_) return;
  error_ = std::move(err);
  if (open_gate) gate_.open();
  completion_.drop();
  done_cond_.notify_all();
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

Rendezvous::Rendezvous(sim::Scheduler* sched, int expected, OpDesc desc,
                       CollectiveEngine* engine)
    : HostOp(sched),
      desc_(desc),
      expected_(expected),
      engine_(engine),
      slots_(static_cast<std::size_t>(expected)),
      participants_(static_cast<std::size_t>(expected)) {
  MCRDL_CHECK(expected >= 1);
  // Every rank registers its backend's exec_start hook and, on host-MPI
  // backends, the pipeline's finish record; the engine adds its reclaim.
  completion_.reserve(2 * participants_.size() + 1);
}

void Rendezvous::post(int idx, ArrivalSlot slot) {
  MCRDL_CHECK(idx >= 0 && idx < expected_);
  Participant& p = participants_[static_cast<std::size_t>(idx)];
  MCRDL_CHECK(!p.posted) << "rank " << idx << " posted twice to one " << op_name(desc_.op)
                         << " rendezvous";
  slots_[static_cast<std::size_t>(idx)] = std::move(slot);
  p.posted = true;
  ++posted_;
}

void Rendezvous::mark_ready(int idx) {
  MCRDL_CHECK(idx >= 0 && idx < expected_);
  // A failed rendezvous never starts its wire phase; a straggler's stream
  // reaching its arrival callback after the watchdog fired must not revive
  // the operation.
  if (error_) return;
  Participant& p = participants_[static_cast<std::size_t>(idx)];
  MCRDL_CHECK(p.posted) << "ready before post";
  MCRDL_CHECK(!p.ready) << "double ready";
  p.ready = true;
  ready_time_ = std::max(ready_time_, sched_->now());
  if (++ready_ < expected_) return;
  const SimTime duration = engine_->duration_of(desc_);
  exec_start_ = engine_->wire_start(ready_time_, duration, desc_.bytes);
  complete_time_ = exec_start_ + duration;
  // Keep the rendezvous alive through finish() even if every Work handle
  // and the engine's pending-table entry are dropped first.
  sched_->schedule_at(complete_time_, [this, self = shared_from_this()] { finish(); });
}

void Rendezvous::finish() {
  apply_collective(desc_, slots_);
  // Callbacks first: they set Work metadata (exec_start) that downstream
  // completion hooks — fired transitively by gate opening — read.
  for (auto& fn : completion_.fire()) fn();
  gate_.open();
  done_cond_.notify_all();
}

std::vector<int> Rendezvous::posted_indices() const {
  std::vector<int> out;
  for (int i = 0; i < expected_; ++i) {
    if (participants_[static_cast<std::size_t>(i)].posted) out.push_back(i);
  }
  return out;
}

std::vector<int> Rendezvous::missing_indices() const {
  std::vector<int> out;
  for (int i = 0; i < expected_; ++i) {
    if (!participants_[static_cast<std::size_t>(i)].posted) out.push_back(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CollectiveEngine
// ---------------------------------------------------------------------------

CollectiveEngine::CollectiveEngine(sim::Scheduler* sched, net::CostModel cost_model,
                                   net::CommShape shape, int size, std::vector<int> global_ranks,
                                   fault::FaultInjector* faults, std::string backend_name)
    : sched_(sched),
      cost_model_(std::move(cost_model)),
      shape_(shape),
      size_(size),
      global_ranks_(std::move(global_ranks)),
      faults_(faults),
      backend_name_(std::move(backend_name)),
      next_seq_(static_cast<std::size_t>(size), 0) {
  if (global_ranks_.empty()) {
    for (int i = 0; i < size_; ++i) global_ranks_.push_back(i);
  }
  MCRDL_CHECK(static_cast<int>(global_ranks_.size()) == size_);
  if (faults_ != nullptr) {
    // Injected link degradation flows through the cost model so it shows up
    // as longer virtual-time operations, not exceptions. The hook returns
    // the identity while no fault is active, which the model skips — a
    // disabled injector leaves every cost bit-identical.
    cost_model_.set_fault_scale([faults = faults_, name = backend_name_](OpType op) {
      const fault::BetaScale s = faults->link_beta_scale(name, op);
      return net::FaultBetaScale{s.intra, s.inter};
    });
    // Elastic recovery: when a rank is declared permanently lost, the
    // quiesce phase drains this communicator's pending rendezvous; when a
    // lost rank rejoins, the grow phase re-sequences the communicator.
    drain_id_ = faults_->recovery().register_drain(
        [this](const std::vector<int>& lost) { return drain_lost(lost); });
    grow_id_ = faults_->recovery().register_grow(
        backend_name_, [this](const std::vector<int>& rejoined) { return drain_rejoined(rejoined); });
  }
}

CollectiveEngine::~CollectiveEngine() {
  if (faults_ != nullptr && drain_id_ != 0) faults_->recovery().unregister_drain(drain_id_);
  if (faults_ != nullptr && grow_id_ != 0) faults_->recovery().unregister_grow(grow_id_);
  for (auto& [seq, rv] : pending_) rv->completion_.drop();
}

std::uint64_t CollectiveEngine::drain_lost(const std::vector<int>& lost) {
  std::vector<int> lost_members;
  for (int g : global_ranks_) {
    if (std::find(lost.begin(), lost.end(), g) != lost.end()) lost_members.push_back(g);
  }
  // ncclCommAbort semantics: a membership change aborts EVERY communicator,
  // not just the ones containing a lost rank. A composite parks some ranks
  // in subgroup rendezvous whose membership is all-survivor (the intact
  // node's intra group, say); if those stayed pending, their ranks would
  // never unwind while their peers bounce to the new epoch and replay from
  // the first phase — and the stale expectation would poison the reused
  // communicator's sequence ledger.
  return cancel_and_resequence([&](OpType op) {
    if (!lost_members.empty()) return fault::describe_rank_loss(op, backend_name_, lost_members);
    return "epoch quiesce: " + std::string(op_name(op)) + " on backend '" + backend_name_ +
           "' cancelled by membership change";
  });
}

std::uint64_t CollectiveEngine::drain_rejoined(const std::vector<int>& rejoined) {
  const bool member_rejoined = std::any_of(global_ranks_.begin(), global_ranks_.end(), [&](int g) {
    return std::find(rejoined.begin(), rejoined.end(), g) != rejoined.end();
  });
  if (!member_rejoined) return 0;
  return cancel_and_resequence([&](OpType op) {
    return "grow re-sequence: " + std::string(op_name(op)) + " on backend '" + backend_name_ +
           "' cancelled for replay on the grown communicator";
  });
}

std::uint64_t CollectiveEngine::cancel_and_resequence(
    const std::function<std::string(OpType)>& why) {
  std::uint64_t cancelled = 0;
  for (auto& [seq, rv] : pending_) {
    if (rv->done() || rv->failed() || rv->started()) continue;
    rv->cancel(std::make_exception_ptr(RankLostError(why(rv->desc().op))));
    ++cancelled;
  }
  // Re-sequence: a cancelled rendezvous consumed sequence numbers only on
  // the ranks that had already joined it (and survivors consumed numbers on
  // doomed joins a dead rank never made), so the counters disagree across
  // the membership — and a replayed composite may issue a *different*
  // sub-op at the reused number. Started rendezvous keep completing off the
  // table (reclaim is identity-checked); every replay joins fresh from
  // sequence zero.
  pending_.clear();
  std::fill(next_seq_.begin(), next_seq_.end(), 0);
  return cancelled;
}

SimTime CollectiveEngine::duration_of(const OpDesc& desc) const {
  const SimTime base = cost_model_.collective_cost(desc.op, desc.bytes, shape_);
  return std::max(base - desc.launch_discount_us, base * 0.1);
}

SimTime CollectiveEngine::wire_start(SimTime ready, SimTime duration, std::size_t bytes) {
  if (bytes <= kWireSerializeThreshold) return ready;
  const SimTime start = std::max(ready, channel_busy_until_);
  channel_busy_until_ = start + duration;
  return start;
}

std::shared_ptr<Rendezvous> CollectiveEngine::join(int idx, const OpDesc& desc,
                                                   ArrivalSlot slot) {
  MCRDL_REQUIRE(idx >= 0 && idx < size_, "communicator rank index out of range");
  const std::uint64_t seq = next_seq_[static_cast<std::size_t>(idx)]++;
  auto it = pending_.find(seq);
  std::shared_ptr<Rendezvous> rv;
  if (it == pending_.end()) {
    const OpDesc& d = desc;
    rv = std::make_shared<Rendezvous>(sched_, size_, d, this);
    pending_[seq] = rv;
    // Reclaim the table entry once everyone has moved past this op. The
    // identity check matters across grow events: a started pre-grow
    // rendezvous completing after the table was cleared and re-sequenced
    // must not erase a fresh entry that reused its sequence number.
    rv->on_complete([this, seq, weak = std::weak_ptr<Rendezvous>(rv)] {
      auto entry = pending_.find(seq);
      if (entry != pending_.end() && entry->second == weak.lock()) pending_.erase(entry);
    });
    if (faults_ != nullptr && faults_->enabled()) {
      // The first-arriving rank classifies the rendezvous for everyone —
      // an injected failure fails the collective identically on all ranks,
      // keeping sequence numbers aligned for the retry/failover layer.
      if (const std::vector<int> lost = faults_->lost_members(global_ranks_); !lost.empty()) {
        // Membership includes a permanently lost rank: doomed at creation so
        // every surviving joiner unwinds immediately with a retriable error
        // instead of waiting out a watchdog deadline that can never be met.
        faults_->note_rank_loss_rejection();
        rv->fail(std::make_exception_ptr(
            RankLostError(fault::describe_rank_loss(d.op, backend_name_, lost))));
      } else if (faults_->backend_unavailable(backend_name_)) {
        faults_->note_outage_rejection();
        rv->fail(std::make_exception_ptr(BackendUnavailable(
            "backend '" + backend_name_ + "' is out of service (injected outage); rejected " +
            op_name(d.op))));
      } else if (faults_->should_fail(backend_name_, d.op)) {
        faults_->note_transient();
        rv->fail(std::make_exception_ptr(TransientFault(
            std::string("injected transient fault: ") + op_name(d.op) + " on backend '" +
            backend_name_ + "'")));
      } else if (faults_->watchdog_deadline_us() > 0.0) {
        const SimTime deadline = faults_->watchdog_deadline_us();
        std::weak_ptr<Rendezvous> weak = rv;
        const std::uint64_t timer =
            faults_->watchdog().arm(deadline, [this, weak, deadline, op = d.op] {
              auto strong = weak.lock();
              if (!strong || strong->done() || strong->failed()) return;
              faults_->note_watchdog_timeout();
              std::vector<int> arrived, missing;
              for (int i : strong->posted_indices())
                arrived.push_back(global_ranks_[static_cast<std::size_t>(i)]);
              for (int i : strong->missing_indices())
                missing.push_back(global_ranks_[static_cast<std::size_t>(i)]);
              // When everyone who failed to arrive is a permanently lost
              // rank, the hang has a better name than "timeout": surface the
              // retriable RankLostError so elastic recovery (or the caller)
              // knows shrinking — not waiting — is the fix.
              bool all_missing_lost = !missing.empty();
              for (int r : missing) all_missing_lost = all_missing_lost && faults_->rank_lost(r);
              if (all_missing_lost) {
                strong->fail(std::make_exception_ptr(
                    RankLostError(fault::describe_rank_loss(op, backend_name_, missing))));
              } else {
                strong->fail(std::make_exception_ptr(
                    TimeoutError(fault::describe_timeout(op, backend_name_, deadline, arrived,
                                                         missing))));
              }
            });
        // Completion cancels the deadline; cancelled events are popped
        // without advancing virtual time, so a clean run with the watchdog
        // enabled keeps the exact fault-free timeline.
        rv->on_complete([this, timer] { faults_->watchdog().disarm(timer); });
      }
    }
  } else {
    rv = it->second;
    const OpDesc& expect = rv->desc();
    if (expect.op != desc.op || expect.root != desc.root) {
      std::ostringstream msg;
      msg << "collective mismatch at sequence " << seq << ": rank " << idx << " issued "
          << op_name(desc.op) << " (root " << desc.root << ") but the communicator expects "
          << op_name(expect.op) << " (root " << expect.root << ")";
      throw CollectiveMismatch(msg.str());
    }
  }
  rv->post(idx, std::move(slot));
  if (rv->failed()) {
    // Doomed rendezvous: the sequence number is consumed (all ranks stay
    // aligned for the retry), the table entry is reclaimed once the last
    // rank has observed the failure, and the injected error propagates.
    if (rv->posted_count() >= size_) pending_.erase(seq);
    std::rethrow_exception(rv->error());
  }
  return rv;
}

// ---------------------------------------------------------------------------
// P2P
// ---------------------------------------------------------------------------

P2pOp::P2pOp(sim::Scheduler* sched, std::function<SimTime()> duration_fn)
    : HostOp(sched),
      duration_fn_(std::move(duration_fn)) {}

void P2pOp::set_send(Tensor t) {
  MCRDL_CHECK(!have_send_) << "send side already set";
  send_tensor_ = std::move(t);
  have_send_ = true;
}

void P2pOp::set_recv(Tensor t) {
  MCRDL_CHECK(!have_recv_) << "recv side already set";
  recv_tensor_ = std::move(t);
  have_recv_ = true;
}

void P2pOp::mark_ready(int side) {
  MCRDL_CHECK(side == kSendSide || side == kRecvSide);
  (side == kSendSide ? send_ready_ : recv_ready_) = true;
  if (!send_ready_ || !recv_ready_ || completion_.fired() || error_) return;
  const SimTime duration = duration_fn_();
  exec_start_ = sched_->now();
  complete_time_ = sched_->now() + duration;
  sched_->schedule_at(complete_time_, [this, self = shared_from_this()] {
    if (recv_tensor_.defined() && recv_tensor_.materialized() && send_tensor_.defined() &&
        send_tensor_.materialized()) {
      recv_tensor_.copy_from(send_tensor_);
    }
    auto callbacks = completion_.fire();
    gate_.open();
    for (auto& fn : callbacks) fn();
    done_cond_.notify_all();
  });
}

P2pEngine::P2pEngine(sim::Scheduler* sched, net::CostModel cost_model,
                     std::vector<int> global_ranks, fault::FaultInjector* faults,
                     std::string backend_name)
    : sched_(sched),
      cost_model_(std::move(cost_model)),
      global_ranks_(std::move(global_ranks)),
      faults_(faults),
      backend_name_(std::move(backend_name)) {
  if (faults_ != nullptr) {
    cost_model_.set_fault_scale([faults = faults_, name = backend_name_](OpType op) {
      const fault::BetaScale s = faults->link_beta_scale(name, op);
      return net::FaultBetaScale{s.intra, s.inter};
    });
    drain_id_ = faults_->recovery().register_drain(
        [this](const std::vector<int>& lost) { return drain_lost(lost); });
    grow_id_ = faults_->recovery().register_grow(
        backend_name_, [this](const std::vector<int>& rejoined) { return drain_rejoined(rejoined); });
  }
}

P2pEngine::~P2pEngine() {
  if (faults_ != nullptr && drain_id_ != 0) faults_->recovery().unregister_drain(drain_id_);
  if (faults_ != nullptr && grow_id_ != 0) faults_->recovery().unregister_grow(grow_id_);
  for (auto* table : {&pending_sends_, &pending_recvs_}) {
    for (auto& [key, queue] : *table) {
      for (auto& op : queue) op->completion_.drop();
    }
  }
}

std::vector<int> P2pEngine::endpoints_in(std::int64_t key, const std::vector<int>& ranks) const {
  const auto size = static_cast<std::int64_t>(global_ranks_.size());
  const int g_src = global_ranks_[static_cast<std::size_t>(key / size)];
  const int g_dst = global_ranks_[static_cast<std::size_t>(key % size)];
  const auto in = [&](int g) { return std::find(ranks.begin(), ranks.end(), g) != ranks.end(); };
  std::vector<int> out;
  if (in(g_src)) out.push_back(g_src);
  if (g_dst != g_src && in(g_dst)) out.push_back(g_dst);
  return out;
}

std::uint64_t P2pEngine::drain_lost(const std::vector<int>& lost) {
  std::uint64_t cancelled = 0;
  for (auto* table : {&pending_sends_, &pending_recvs_}) {
    for (auto& [key, queue] : *table) {
      const std::vector<int> lost_endpoints = endpoints_in(key, lost);
      if (lost_endpoints.empty()) continue;
      for (auto& op : queue) {
        if (op->done() || op->failed()) continue;
        op->cancel(std::make_exception_ptr(RankLostError(
            fault::describe_rank_loss(OpType::Send, backend_name_, lost_endpoints))));
        ++cancelled;
      }
    }
  }
  return cancelled;
}

std::uint64_t P2pEngine::drain_rejoined(const std::vector<int>& rejoined) {
  std::uint64_t cancelled = 0;
  for (auto* table : {&pending_sends_, &pending_recvs_}) {
    for (auto& [key, queue] : *table) {
      if (endpoints_in(key, rejoined).empty()) continue;
      // Stale entries — typically doomed ops queued while the rank was dead,
      // whose counterpart stale-rejected instead of matching — must not pair
      // with fresh post-rejoin traffic.
      for (auto& op : queue) {
        if (!op->done()) ++cancelled;
        if (op->done() || op->failed()) continue;
        op->cancel(std::make_exception_ptr(RankLostError(
            "grow re-sequence: p2p on backend '" + backend_name_ +
            "' cancelled for replay on the grown communicator")));
      }
      queue.clear();
    }
  }
  return cancelled;
}

std::shared_ptr<P2pOp> P2pEngine::match(int src, int dst, bool is_send, std::size_t bytes) {
  const int size = static_cast<int>(global_ranks_.size());
  MCRDL_REQUIRE(src >= 0 && src < size && dst >= 0 && dst < size, "p2p peer out of range");
  const std::int64_t key = static_cast<std::int64_t>(src) * size + dst;
  auto& counterpart = is_send ? pending_recvs_[key] : pending_sends_[key];
  if (!counterpart.empty()) {
    auto op = counterpart.front();
    counterpart.erase(counterpart.begin());
    return op;
  }
  const int g_src = global_ranks_[static_cast<std::size_t>(src)];
  const int g_dst = global_ranks_[static_cast<std::size_t>(dst)];
  auto op = std::make_shared<P2pOp>(
      sched_, [this, bytes, g_src, g_dst] { return cost_model_.p2p_cost(bytes, g_src, g_dst); });
  if (faults_ != nullptr && faults_->enabled()) {
    // Classified once per pair, by the first-arriving side; the doomed op
    // still enters the FIFO so the counterpart matches (and fails) the same
    // attempt. Transient specs match p2p pairs through OpType::Send.
    if (const std::vector<int> lost = faults_->lost_members({g_src, g_dst}); !lost.empty()) {
      faults_->note_rank_loss_rejection();
      op->fail(std::make_exception_ptr(
          RankLostError(fault::describe_rank_loss(OpType::Send, backend_name_, lost))));
    } else if (faults_->backend_unavailable(backend_name_)) {
      faults_->note_outage_rejection();
      op->fail(std::make_exception_ptr(BackendUnavailable(
          "backend '" + backend_name_ + "' is out of service (injected outage); rejected " +
          std::string(is_send ? "send" : "recv"))));
    } else if (faults_->should_fail(backend_name_, OpType::Send)) {
      faults_->note_transient();
      op->fail(std::make_exception_ptr(TransientFault(
          "injected transient fault: p2p " + std::string(is_send ? "send" : "recv") +
          " on backend '" + backend_name_ + "'")));
    }
  }
  (is_send ? pending_sends_[key] : pending_recvs_[key]).push_back(op);
  return op;
}

std::shared_ptr<P2pOp> P2pEngine::post_send(int src, int dst, const Tensor& t) {
  auto op = match(src, dst, /*is_send=*/true, t.bytes());
  op->set_send(t);
  if (op->failed()) std::rethrow_exception(op->error());
  return op;
}

std::shared_ptr<P2pOp> P2pEngine::post_recv(int dst, int src, Tensor t) {
  auto op = match(src, dst, /*is_send=*/false, t.bytes());
  op->set_recv(std::move(t));
  if (op->failed()) std::rethrow_exception(op->error());
  return op;
}

}  // namespace mcrdl::backends_detail
