// Asynchronous work handles — what every MCR-DL communication call returns.
//
// Two completion disciplines exist, matching the two backend families
// (paper Section V-C/V-D):
//   * StreamWork (NCCL/SCCL): completion is a CUDA event on the backend's
//     communication stream. wait() inserts a stream-level dependency on the
//     caller's default stream — the host does NOT block (this is the
//     fine-grained synchronisation of Figure 4(b)). synchronize() blocks the
//     host actor.
//   * HostWork (MPI): completion is a host-side flag guarded by a virtual
//     condition (MPI_Wait semantics). wait() and synchronize() both block
//     the host actor.
#pragma once

#include <memory>
#include <string>

#include "src/common/inline_fn.h"
#include "src/common/units.h"
#include "src/net/comm_types.h"
#include "src/sim/device.h"

namespace mcrdl {

class WorkHandle {
 public:
  virtual ~WorkHandle() = default;

  // True once the operation has completed (MPI_Test / cudaEventQuery).
  virtual bool test() const = 0;
  // Orders the operation before subsequent work as seen from the caller's
  // default stream; see class comment for per-family behaviour.
  virtual void wait() = 0;
  // Blocks the calling actor until the operation has completed.
  virtual void synchronize() = 0;
  // Virtual time at which the operation completed (valid once test()).
  virtual SimTime complete_time() const = 0;
  // Runs fn at completion time, under the baton, before waiters resume, or
  // inline if the work is already complete. On fail, cancel or teardown fn
  // is dropped, never run (src/common/completion.h). Fusion slice-back and
  // the communication logger hook in here.
  virtual void on_complete(InlineFn fn) = 0;

  OpType op = OpType::Barrier;
  std::string backend_name;
  SimTime posted_at = 0.0;
  // When the operation actually started executing (all participants ready);
  // set by the backend at completion. Negative until known. The logger uses
  // [exec_start, complete] so overlapped queueing time is not billed as
  // communication.
  SimTime exec_start = -1.0;
};

using Work = std::shared_ptr<WorkHandle>;

// Completion via an event on a communication stream. The work owns both
// events of its operation, so posting one allocates only the work; the
// event pointers handed to streams share ownership of the work. A post is
// three stream ops: input_ready is recorded on the default stream, and the
// communication stream waits on it, then reaches the arrival op, which
// marks this rank ready, stalls behind the operation's gate and completes
// done_event when the gate opens.
class StreamWork : public WorkHandle, public std::enable_shared_from_this<StreamWork> {
 public:
  StreamWork(sim::Scheduler* sched, sim::Stream* default_stream);

  // Recorded on the caller's default stream ahead of the operation; the
  // communication stream waits on it before starting.
  std::shared_ptr<sim::Event> input_ready() { return {shared_from_this(), &input_ready_}; }
  // Completed on the communication stream once the operation is done.
  std::shared_ptr<sim::Event> done_event() { return {shared_from_this(), &done_event_}; }

  bool test() const override;
  void wait() override;         // default_stream.wait_event(done_event)
  void synchronize() override;  // host waits on done_event
  SimTime complete_time() const override;
  void on_complete(InlineFn fn) override;

 private:
  sim::Event input_ready_;
  sim::Event done_event_;
  sim::Stream* default_stream_;
};

namespace backends_detail {
class HostOp;
}  // namespace backends_detail

// Completion via a host-side rendezvous flag (MPI request): a collective
// Rendezvous or a p2p pair.
class HostWork : public WorkHandle {
 public:
  explicit HostWork(std::shared_ptr<backends_detail::HostOp> op);

  bool test() const override;
  void wait() override;  // MPI_Wait: blocks the host
  void synchronize() override { wait(); }
  SimTime complete_time() const override;
  void on_complete(InlineFn fn) override;

 private:
  std::shared_ptr<backends_detail::HostOp> op_;
};

}  // namespace mcrdl
