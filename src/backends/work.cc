#include "src/backends/work.h"

#include "src/backends/engine.h"

namespace mcrdl {

StreamWork::StreamWork(sim::Scheduler* sched, sim::Stream* default_stream)
    : input_ready_(sched), done_event_(sched), default_stream_(default_stream) {}

bool StreamWork::test() const { return done_event_.complete(); }

void StreamWork::wait() { default_stream_->wait_event(done_event()); }

void StreamWork::synchronize() { done_event_.synchronize(); }

SimTime StreamWork::complete_time() const { return done_event_.completion_time(); }

HostWork::HostWork(std::shared_ptr<backends_detail::HostOp> op) : op_(std::move(op)) {}

bool HostWork::test() const { return op_->done(); }

void HostWork::wait() { op_->wait_done(); }

SimTime HostWork::complete_time() const { return op_->complete_time(); }

void StreamWork::on_complete(InlineFn fn) { done_event_.on_complete(std::move(fn)); }

void HostWork::on_complete(InlineFn fn) { op_->on_complete(std::move(fn)); }

}  // namespace mcrdl
