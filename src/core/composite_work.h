// CompositeWork: a Work made of several underlying operations plus an
// optional finalisation step (repacking, slice-back, decompression) that
// runs under the scheduler baton the moment the last part completes.
// The emulation, fusion, and compression layers all return these.
#pragma once

#include <functional>
#include <vector>

#include "src/backends/work.h"
#include "src/common/completion.h"
#include "src/sim/scheduler.h"

namespace mcrdl {

class CompositeWork : public WorkHandle, public std::enable_shared_from_this<CompositeWork> {
 public:
  // Use make_composite(); the two-phase construction (constructor + arm())
  // lets part callbacks hold shared ownership of the composite.
  CompositeWork(sim::Scheduler* sched, std::vector<Work> parts,
                std::function<void()> finalize = {});
  // Registers completion callbacks on the parts; must be called exactly once
  // on a shared_ptr-owned instance.
  void arm();
  // Terminal without finalisation: drops the completion, releases the parts
  // and the self-anchor, and wakes waiters. For owners abandoning a
  // composite whose parts will never complete (e.g. cancelled by a rank
  // loss).
  void cancel();

  bool test() const override { return done_; }
  void wait() override;         // host-level wait (emulated ops are host-driven)
  void synchronize() override { wait(); }
  SimTime complete_time() const override { return complete_time_; }
  void on_complete(InlineFn fn) override;

 private:
  void part_done();
  // The one terminal transition: fires (success) or drops the completion.
  void finish(bool fire);

  sim::Scheduler* sched_;
  std::vector<Work> parts_;
  std::function<void()> finalize_;
  int remaining_ = 0;
  bool done_ = false;
  SimTime complete_time_ = 0.0;
  Completion completion_;
  sim::SimCondition done_cond_;
  // Shared self-reference set by arm() and released on every terminal path;
  // keeps the composite alive while its (weak) part callbacks are armed.
  std::shared_ptr<CompositeWork> self_;
};

// Builds a composite over existing works with an optional finalize step.
Work make_composite(sim::Scheduler* sched, std::vector<Work> parts,
                    std::function<void()> finalize = {});

}  // namespace mcrdl
