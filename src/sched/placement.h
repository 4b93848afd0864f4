// Placement of tenant jobs onto disjoint contiguous rank ranges of the
// shared world.
//
// First-fit over a coalescing free list. Allocations of a whole node or
// more are node-aligned (begin is a multiple of gpus_per_node), so a
// multi-node tenant's slice maps onto whole nodes exactly like the
// single-job simulator lays ranks out — which is also what lets the job
// cost cache (src/sched/cost_cache.h) measure a slice as ranks [0, n).
#pragma once

#include <optional>
#include <vector>

#include "src/sched/job.h"

namespace mcrdl::sched {

class RankAllocator {
 public:
  // `alignment` is normally the topology's gpus_per_node.
  RankAllocator(int world, int alignment);

  // First-fit allocation of `count` contiguous ranks; node-aligned when
  // count >= alignment. Returns nullopt when no free range fits.
  std::optional<RankRange> allocate(int count);
  // True iff allocate(count) would succeed (no state change). O(1): it reads
  // the largest runs, which allocate() and release() keep current.
  bool fits(int count) const;
  void release(const RankRange& range);

  int world() const { return world_; }
  int free_ranks() const;
  // Current free ranges, ascending and coalesced (for tests/introspection).
  const std::vector<RankRange>& free_list() const { return free_; }

 private:
  // Aligned first-fit begin within `range`, or -1 if `count` does not fit.
  int fit_begin(const RankRange& range, int count) const;
  // Recomputes the two largest runs from the free list.
  void update_largest_runs();

  int world_;
  int alignment_;
  std::vector<RankRange> free_;  // ascending, disjoint, coalesced
  int largest_run_ = 0;          // longest free range
  int largest_aligned_run_ = 0;  // longest aligned tail of a free range
};

}  // namespace mcrdl::sched
