#include "src/core/composite_work.h"

#include <utility>

namespace mcrdl {

CompositeWork::CompositeWork(sim::Scheduler* sched, std::vector<Work> parts,
                             std::function<void()> finalize)
    : sched_(sched),
      parts_(std::move(parts)),
      finalize_(std::move(finalize)),
      remaining_(static_cast<int>(parts_.size())),
      done_cond_(sched) {}

void CompositeWork::arm() {
  // The self-anchor keeps the composite alive while part callbacks are armed
  // even if the caller drops its handle; every terminal path releases it.
  // Part callbacks capture a weak_ptr so the anchor is the only owner a
  // never-completing part can pin.
  self_ = shared_from_this();
  if (parts_.empty()) {
    part_done();  // degenerate composite: finalize immediately
    return;
  }
  std::weak_ptr<CompositeWork> weak = self_;
  for (auto& p : parts_) {
    p->on_complete([weak] {
      if (auto self = weak.lock()) self->part_done();
    });
  }
}

void CompositeWork::part_done() {
  if (remaining_ > 0 && --remaining_ > 0) return;
  if (done_) return;
  if (finalize_) finalize_();
  finish(/*fire=*/true);
}

void CompositeWork::cancel() {
  if (!done_) finish(/*fire=*/false);
}

void CompositeWork::finish(bool fire) {
  done_ = true;
  complete_time_ = sched_->now();
  Completion::Callbacks callbacks;
  if (fire) {
    callbacks = completion_.fire();
  } else {
    completion_.drop();
  }
  // Release everything that could pin memory past the terminal state — the
  // parts (and the tensors their closures hold), the finalize closure, and
  // the self-anchor. Destroying the anchor last keeps `this` valid while the
  // callbacks run even if the caller already dropped its handle.
  parts_.clear();
  finalize_ = nullptr;
  auto anchor = std::move(self_);
  for (auto& fn : callbacks) fn();
  done_cond_.notify_all();
}

void CompositeWork::wait() {
  done_cond_.wait([&] { return done_; });
}

void CompositeWork::on_complete(InlineFn fn) {
  if (auto late = completion_.add(std::move(fn))) late();
}

Work make_composite(sim::Scheduler* sched, std::vector<Work> parts,
                    std::function<void()> finalize) {
  auto w = std::make_shared<CompositeWork>(sched, std::move(parts), std::move(finalize));
  w->arm();
  return w;
}

}  // namespace mcrdl
