// Process-group topology helpers for the hybrid-parallel schemes the paper
// targets (Section III-A): given a world laid out as
// (data-parallel x tensor-parallel) or with expert-parallel slices, build
// the rank lists each rank's collectives run over. Mirrors the group
// bookkeeping in Megatron/DeepSpeed.
#pragma once

#include <vector>

#include "src/common/status.h"

namespace mcrdl {

// Rank layout: tensor-parallel ranks are contiguous (rank = dp * tp + t).
class ProcessGroups {
 public:
  ProcessGroups(int world, int tensor_parallel, int expert_parallel = 1);

  int world() const { return world_; }
  int tensor_parallel() const { return tp_; }
  int data_parallel() const { return world_ / tp_; }
  int expert_parallel() const { return ep_; }

  // The TP group containing `rank` (size tensor_parallel, same node when
  // tp <= gpus-per-node under the block layout).
  std::vector<int> tp_group(int rank) const;
  // The DP group containing `rank` (ranks with the same TP index).
  std::vector<int> dp_group(int rank) const;
  // The expert-parallel group containing `rank`: consecutive slices of the
  // DP dimension of size expert_parallel (DeepSpeed-MoE style).
  std::vector<int> ep_group(int rank) const;

  // All groups of each kind (for setup loops / debugging).
  std::vector<std::vector<int>> all_tp_groups() const;
  std::vector<std::vector<int>> all_dp_groups() const;

 private:
  void check_rank(int rank) const;

  int world_;
  int tp_;
  int ep_;
};

// Result of rebuilding a hybrid-parallel layout after permanent rank loss
// (src/fault/recovery.h): the survivors renumbered densely into a smaller
// world, with flags recording which parallelism dimensions survived intact.
struct ShrunkGroups {
  ProcessGroups groups;          // layout over the shrunk world
  std::vector<int> survivors;    // old global rank per new rank (ascending)
  std::vector<int> old_to_new;   // old global rank -> new rank, -1 if lost
  bool tp_preserved = true;      // old TP degree still divides the new world
  bool ep_preserved = true;      // old EP degree still divides the new DP
};

// Shrinks `old` to the ranks not listed in `lost`. The old tensor-parallel
// degree is kept when the surviving world is still divisible by it, else TP
// collapses to 1 (a lost rank tears a hole in some TP block, so block-local
// groups cannot be preserved in general); likewise EP against the new DP
// degree. Requires at least one survivor.
ShrunkGroups shrink_process_groups(const ProcessGroups& old, const std::vector<int>& lost);

// Rebuilds the hybrid-parallel layout over whatever part of the *original*
// world is currently alive — the grow-path entry point. `lost` is the
// post-grow lost set (possibly empty: everyone rejoined). Shrinking from the
// original layout rather than from the last shrunk one means grow is exact:
// after a full rejoin the TP/DP/EP groups are byte-for-byte the seed layout,
// not an approximation recovered through intermediate collapses.
ShrunkGroups rebuild_process_groups(const ProcessGroups& original, const std::vector<int>& lost);

}  // namespace mcrdl
