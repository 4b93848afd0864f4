// Simulated device runtime: Device / Stream / Event with CUDA semantics.
//
// A Stream is an in-order queue of operations. Kernels occupy the stream for
// a virtual-time duration; Record/Wait of Events reproduce cudaEventRecord /
// cudaStreamWaitEvent ordering; a callback op may carry a gate and a done
// event, so one op is a backend's whole stream-side arrival at a
// communication operation: signal arrival, stall until the operation
// completes, record completion. Host code interacts through synchronize()
// calls that suspend the calling actor in virtual time.
//
// All methods must be called under the scheduler baton (i.e. from actor code
// or timed-event callbacks); see src/sim/scheduler.h for the threading
// contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/completion.h"
#include "src/common/inline_fn.h"
#include "src/common/ring_queue.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/scheduler.h"

namespace mcrdl::sim {

class Stream;

// The streams stalled behind one Event or StreamGate, in stall order. A
// stalled stream waits on exactly one dependency, so the list threads
// through the streams themselves and stalling never allocates.
class StalledStreams {
 public:
  bool empty() const { return head_ == nullptr; }
  void push(Stream* s);
  // Resumes every listed stream, in stall order, emptying the list first.
  void resume_all();

 private:
  Stream* head_ = nullptr;
  Stream* tail_ = nullptr;
};

// CUDA-event analogue. An Event is complete once a Record operation for it
// has been executed by its stream; both host actors and other streams can
// wait on it.
class Event {
 public:
  explicit Event(Scheduler* sched) : sched_(sched), host_waiters_(sched) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool complete() const { return completion_.fired(); }
  // Virtual time at which the event completed; only valid when complete().
  SimTime completion_time() const { return completion_time_; }

  // Host-side blocking wait (cudaEventSynchronize).
  void synchronize();

  // Re-arms the event for another Record (cudaEventRecord overwrites).
  void reset();

  // Runs fn at completion (immediately if already complete). Callbacks run
  // under the baton, before host waiters resume.
  void on_complete(InlineFn fn);

  // --- stream-internal interface ---
  void mark_complete(SimTime t);
  void add_stream_waiter(Stream* s) { stream_waiters_.push(s); }

 private:
  friend class Stream;  // drops the completion of events it never reached

  Scheduler* sched_;
  Completion completion_;
  SimTime completion_time_ = 0.0;
  SimCondition host_waiters_;
  StalledStreams stream_waiters_;
};

// A gate a callback op can stall its stream behind; a communication
// operation opens its one gate at completion (or cancellation), resuming
// every stream stalled behind it in stall order. Unlike an Event, a Gate is
// one-shot and not recorded by any stream.
class StreamGate {
 public:
  StreamGate() = default;
  StreamGate(const StreamGate&) = delete;
  StreamGate& operator=(const StreamGate&) = delete;

  bool is_open() const { return open_; }
  void open();
  void add_waiter(Stream* s) { waiters_.push(s); }

 private:
  bool open_ = false;
  StalledStreams waiters_;
};

class Device;

// In-order execution queue on a device.
class Stream {
 public:
  Stream(Scheduler* sched, Device* device, std::string name);
  // Drops the completion of every event still queued: those events can
  // never complete once the stream is gone (src/common/completion.h).
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  // Enqueues a kernel that occupies the stream for `duration` virtual µs;
  // on_complete (optional) runs at the kernel's completion time — backends
  // use it to apply the data effect of a transfer or reduction. `label` is
  // kept as a pointer, not copied: pass a string literal.
  void launch_kernel(SimTime duration, InlineFn on_complete = {}, const char* label = nullptr);

  // cudaEventRecord: the event completes when the stream reaches this point.
  void record_event(const std::shared_ptr<Event>& event);

  // cudaStreamWaitEvent: stalls the stream until the event is complete.
  void wait_event(std::shared_ptr<Event> event);

  // Runs fn the moment the stream reaches this point (zero duration); fn may
  // enqueue further ops, which run after this one. With a gate, the stream
  // then stalls until the gate opens; `done` (optional) completes once the
  // op is passed — at the gate's opening, or when fn returns if there is no
  // gate. Communication backends post their stream-side arrival as one such
  // op: fn marks the operation ready, the gate opens at its completion.
  void add_callback(InlineFn fn, std::shared_ptr<StreamGate> gate = nullptr,
                    std::shared_ptr<Event> done = nullptr);

  // Host-side blocking wait until every queued operation has finished.
  void synchronize();

  bool idle() const { return queue_.empty() && state_ == State::Idle; }
  Device* device() const { return device_; }
  const std::string& name() const { return name_; }
  // Total virtual time this stream has spent executing kernels.
  SimTime busy_time() const { return busy_time_; }

  // --- event/gate-internal interface ---
  // Called when a stalled-on dependency becomes ready.
  void resume();

 private:
  friend class StalledStreams;

  enum class State { Idle, Running, Stalled };
  struct Op {
    enum class Kind { Kernel, Record, WaitEvent, Callback };
    Kind kind = Kind::Callback;
    SimTime duration = 0.0;
    // A callback op's fn is emptied once it has run, while the op may still
    // stall behind its gate.
    InlineFn fn;
    // Recorded, waited on, or (callback) completed once passed.
    std::shared_ptr<Event> event;
    std::shared_ptr<StreamGate> gate;
    const char* label = nullptr;
  };

  void enqueue(Op op);
  void pump();
  // The running kernel's completion event: its on_complete, then the rest
  // of the queue.
  void finish_kernel();

  Scheduler* sched_;
  Device* device_;
  std::string name_;
  RingQueue<Op> queue_;
  // on_complete of the kernel occupying the stream (at most one runs).
  InlineFn running_fn_;
  // Next stream in the StalledStreams list this one is stalled in.
  Stream* next_stalled_ = nullptr;
  State state_ = State::Idle;
  bool pumping_ = false;
  SimTime busy_time_ = 0.0;
  SimCondition quiescent_;
};

// A simulated GPU. Owns its streams; `global_id` is the rank-visible device
// index, (node_id, local_id) locate it in the cluster topology.
class Device {
 public:
  Device(Scheduler* sched, int global_id, int node_id, int local_id);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int global_id() const { return global_id_; }
  int node_id() const { return node_id_; }
  int local_id() const { return local_id_; }

  Stream* default_stream() { return default_stream_; }
  Stream* create_stream(std::string name);
  const std::vector<std::unique_ptr<Stream>>& streams() const { return streams_; }

  Scheduler* scheduler() { return sched_; }

  // Convenience: run a compute kernel of `duration` on the default stream.
  // `label` is a string literal, as for Stream::launch_kernel.
  void compute(SimTime duration, const char* label = nullptr);

 private:
  Scheduler* sched_;
  int global_id_;
  int node_id_;
  int local_id_;
  std::vector<std::unique_ptr<Stream>> streams_;
  Stream* default_stream_ = nullptr;
};

}  // namespace mcrdl::sim
