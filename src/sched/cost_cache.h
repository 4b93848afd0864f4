// Per-(model, slice, contention) job step-time profiles.
//
// The serving scheduler replays thousands of jobs but only a handful of
// distinct (model kind, slice width, quantised contention) shapes; this
// cache measures each shape once through the real TrainingHarness — the
// full OpRequest pipeline, mixed/tuned backend routing, and the net cost
// models with the tenant-contention scale installed — then replays cached
// step times. Contention factors are quantised onto a fixed ladder so the
// cache stays bounded no matter how load fluctuates. A hit is one load from a
// flat [model][ranks][rung] index; every measurement runs on one
// TrainingHarness, so the entries share its actor stacks.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/models/workload.h"
#include "src/sched/job.h"

namespace mcrdl::sched {

// One measured shape: virtual-time per training step on an otherwise
// idle slice of `ranks` ranks under the given inter-node bandwidth share.
struct JobProfile {
  double step_time_us = 0.0;
  double comm_time_us = 0.0;     // per-step comm interval union (rank 0)
  double compute_time_us = 0.0;  // per-step compute busy time (rank 0)

  // Fraction of the step the job keeps its links busy — its fabric demand.
  double comm_fraction() const {
    return step_time_us > 0.0 ? comm_time_us / step_time_us : 0.0;
  }
};

class JobCostCache {
 public:
  // `plan` routes every job's communication: "mixed" (the paper's
  // coarse-grained mix), "tuned" (auto resolution through a tuning table
  // generated per slice width), or a concrete backend name. `quick_models`
  // trims the model configs (fewer layers / smaller batches) so serve
  // replays stay fast; full-size configs match the figure sweeps.
  JobCostCache(net::SystemConfig system, std::string plan = "mixed", bool quick_models = true);

  // The profile for `model` on a `ranks`-wide slice whose inter-node
  // bandwidth is divided by `inter_contention` (quantised internally).
  // Measures on first use, then returns the cached entry.
  const JobProfile& profile(JobModel model, int ranks, double inter_contention = 1.0);

  // Snaps a contention factor up to the next rung of the fixed ladder
  // (1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32; clamped at the top).
  static double quantize_contention(double factor);

  std::size_t entries() const { return entries_.size(); }
  const std::string& plan_name() const { return plan_; }
  // Actor stacks the shared measurement harness has mapped.
  std::size_t stacks_mapped() const { return harness_.stacks_mapped(); }
  // "auto" ops a "tuned" table had no entry for, so they fell back to the
  // default backend, summed over every measurement (RunResult::tune_fallbacks).
  std::uint64_t tune_fallbacks() const { return tune_fallbacks_; }

 private:
  JobProfile measure(JobModel model, int ranks, double contention);
  const TuningTable& table_for(int ranks);

  net::SystemConfig system_;
  std::string plan_;
  bool quick_models_;
  models::TrainingHarness harness_;
  std::deque<JobProfile> entries_;  // measured profiles, in measurement order
  std::uint64_t tune_fallbacks_ = 0;
  // [model][ranks][rung] -> entry, null until measured. Deque elements stay
  // put as entries are added, so the pointers never dangle.
  std::vector<const JobProfile*> index_;
  std::map<int, TuningTable> tables_;  // per slice width, "tuned" plan only
};

}  // namespace mcrdl::sched
