#include "src/sim/device.h"

#include <utility>

namespace mcrdl::sim {

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

void Event::synchronize() {
  host_waiters_.wait([&] { return complete(); });
}

void Event::reset() {
  MCRDL_CHECK(stream_waiters_.empty()) << "reset of an Event with stalled stream waiters";
  completion_.reset();
  completion_time_ = 0.0;
}

void Event::on_complete(InlineFn fn) {
  if (auto late = completion_.add(std::move(fn))) late();
}

void Event::mark_complete(SimTime t) {
  completion_time_ = t;
  for (auto& fn : completion_.fire()) fn();
  host_waiters_.notify_all();
  stream_waiters_.resume_all();
}

// ---------------------------------------------------------------------------
// StreamGate
// ---------------------------------------------------------------------------

void StreamGate::open() {
  if (open_) return;
  open_ = true;
  waiters_.resume_all();
}

// ---------------------------------------------------------------------------
// StalledStreams
// ---------------------------------------------------------------------------

void StalledStreams::push(Stream* s) {
  (tail_ != nullptr ? tail_->next_stalled_ : head_) = s;
  tail_ = s;
}

void StalledStreams::resume_all() {
  Stream* s = std::exchange(head_, nullptr);
  tail_ = nullptr;
  while (s != nullptr) {
    // Unlinked before resuming: the stream may stall again at once.
    Stream* next = std::exchange(s->next_stalled_, nullptr);
    s->resume();
    s = next;
  }
}

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

Stream::Stream(Scheduler* sched, Device* device, std::string name)
    : sched_(sched), device_(device), name_(std::move(name)), quiescent_(sched) {}

Stream::~Stream() {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].event != nullptr) queue_[i].event->completion_.drop();
  }
}

void Stream::launch_kernel(SimTime duration, InlineFn on_complete, const char* label) {
  MCRDL_REQUIRE(duration >= 0.0, "kernel duration must be non-negative");
  Op op;
  op.kind = Op::Kind::Kernel;
  op.duration = duration;
  op.fn = std::move(on_complete);
  op.label = label;
  enqueue(std::move(op));
}

void Stream::record_event(const std::shared_ptr<Event>& event) {
  MCRDL_REQUIRE(event != nullptr, "record_event with null event");
  Op op;
  op.kind = Op::Kind::Record;
  op.event = event;
  enqueue(std::move(op));
}

void Stream::wait_event(std::shared_ptr<Event> event) {
  MCRDL_REQUIRE(event != nullptr, "wait_event with null event");
  Op op;
  op.kind = Op::Kind::WaitEvent;
  op.event = std::move(event);
  enqueue(std::move(op));
}

void Stream::add_callback(InlineFn fn, std::shared_ptr<StreamGate> gate,
                          std::shared_ptr<Event> done) {
  MCRDL_REQUIRE(static_cast<bool>(fn), "add_callback with null function");
  Op op;
  op.kind = Op::Kind::Callback;
  op.fn = std::move(fn);
  op.gate = std::move(gate);
  op.event = std::move(done);
  enqueue(std::move(op));
}

void Stream::synchronize() {
  quiescent_.wait([&] { return idle(); });
}

void Stream::enqueue(Op op) {
  queue_.push_back(std::move(op));
  if (state_ == State::Idle && !pumping_) pump();
}

void Stream::resume() {
  MCRDL_CHECK(state_ == State::Stalled) << "resume of a stream that is not stalled";
  state_ = State::Idle;
  if (!pumping_) pump();
}

void Stream::pump() {
  struct PumpGuard {
    bool& flag;
    explicit PumpGuard(bool& f) : flag(f) { flag = true; }
    ~PumpGuard() { flag = false; }
  } guard(pumping_);

  while (!queue_.empty()) {
    Op& front = queue_.front();
    switch (front.kind) {
      case Op::Kind::Kernel: {
        state_ = State::Running;
        busy_time_ += front.duration;
        running_fn_ = std::move(front.fn);
        SimTime end = sched_->now() + front.duration;
        queue_.pop_front();
        sched_->schedule_at(end, [this] { finish_kernel(); });
        return;  // stream occupied until the completion event fires
      }
      case Op::Kind::Record: {
        front.event->mark_complete(sched_->now());
        queue_.pop_front();
        break;
      }
      case Op::Kind::WaitEvent: {
        if (front.event->complete()) {
          queue_.pop_front();
          break;
        }
        state_ = State::Stalled;
        front.event->add_stream_waiter(this);
        return;
      }
      case Op::Kind::Callback: {
        // fn stays at the front while it runs: ops it enqueues go behind
        // this one (and may move the queue, so front is re-read after).
        if (InlineFn fn = std::move(front.fn)) fn();
        Op& op = queue_.front();
        if (op.gate != nullptr && !op.gate->is_open()) {
          state_ = State::Stalled;
          op.gate->add_waiter(this);
          return;  // resume() re-enters here with fn already run
        }
        if (op.event != nullptr) op.event->mark_complete(sched_->now());
        queue_.pop_front();
        break;
      }
    }
  }
  state_ = State::Idle;
  quiescent_.notify_all();
}

void Stream::finish_kernel() {
  if (InlineFn fn = std::move(running_fn_)) fn();
  state_ = State::Idle;
  pump();
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

Device::Device(Scheduler* sched, int global_id, int node_id, int local_id)
    : sched_(sched), global_id_(global_id), node_id_(node_id), local_id_(local_id) {
  default_stream_ = create_stream("default");
}

Stream* Device::create_stream(std::string name) {
  streams_.push_back(std::make_unique<Stream>(sched_, this, std::move(name)));
  return streams_.back().get();
}

void Device::compute(SimTime duration, const char* label) {
  default_stream_->launch_kernel(duration, {}, label);
}

}  // namespace mcrdl::sim
