#include "src/core/process_groups.h"

namespace mcrdl {

ProcessGroups::ProcessGroups(int world, int tensor_parallel, int expert_parallel)
    : world_(world), tp_(tensor_parallel), ep_(expert_parallel) {
  MCRDL_REQUIRE(world_ >= 1, "world must be >= 1");
  MCRDL_REQUIRE(tp_ >= 1 && world_ % tp_ == 0, "world must be divisible by tensor_parallel");
  const int dp = world_ / tp_;
  MCRDL_REQUIRE(ep_ >= 1 && dp % ep_ == 0,
                "data-parallel degree must be divisible by expert_parallel");
}

void ProcessGroups::check_rank(int rank) const {
  MCRDL_REQUIRE(rank >= 0 && rank < world_, "rank out of range");
}

std::vector<int> ProcessGroups::tp_group(int rank) const {
  check_rank(rank);
  const int base = (rank / tp_) * tp_;
  std::vector<int> out;
  for (int t = 0; t < tp_; ++t) out.push_back(base + t);
  return out;
}

std::vector<int> ProcessGroups::dp_group(int rank) const {
  check_rank(rank);
  std::vector<int> out;
  for (int r = rank % tp_; r < world_; r += tp_) out.push_back(r);
  return out;
}

std::vector<int> ProcessGroups::ep_group(int rank) const {
  check_rank(rank);
  // Within this rank's DP group, take the contiguous slice of ep_ peers.
  const std::vector<int> dp = dp_group(rank);
  int index = 0;
  for (std::size_t i = 0; i < dp.size(); ++i) {
    if (dp[i] == rank) index = static_cast<int>(i);
  }
  const int slice = (index / ep_) * ep_;
  return {dp.begin() + slice, dp.begin() + slice + ep_};
}

std::vector<std::vector<int>> ProcessGroups::all_tp_groups() const {
  std::vector<std::vector<int>> out;
  for (int base = 0; base < world_; base += tp_) out.push_back(tp_group(base));
  return out;
}

std::vector<std::vector<int>> ProcessGroups::all_dp_groups() const {
  std::vector<std::vector<int>> out;
  for (int t = 0; t < tp_; ++t) out.push_back(dp_group(t));
  return out;
}

ShrunkGroups shrink_process_groups(const ProcessGroups& old, const std::vector<int>& lost) {
  std::vector<bool> is_lost(static_cast<std::size_t>(old.world()), false);
  for (int r : lost) {
    MCRDL_REQUIRE(r >= 0 && r < old.world(), "lost rank out of range");
    is_lost[static_cast<std::size_t>(r)] = true;
  }
  std::vector<int> survivors;
  std::vector<int> old_to_new(static_cast<std::size_t>(old.world()), -1);
  for (int r = 0; r < old.world(); ++r) {
    if (is_lost[static_cast<std::size_t>(r)]) continue;
    old_to_new[static_cast<std::size_t>(r)] = static_cast<int>(survivors.size());
    survivors.push_back(r);
  }
  MCRDL_REQUIRE(!survivors.empty(), "cannot shrink process groups: every rank was lost");

  const int new_world = static_cast<int>(survivors.size());
  const bool tp_ok = new_world % old.tensor_parallel() == 0;
  const int new_tp = tp_ok ? old.tensor_parallel() : 1;
  const int new_dp = new_world / new_tp;
  const bool ep_ok = new_dp % old.expert_parallel() == 0;
  const int new_ep = ep_ok ? old.expert_parallel() : 1;

  ShrunkGroups out{ProcessGroups(new_world, new_tp, new_ep), std::move(survivors),
                   std::move(old_to_new), tp_ok, ep_ok};
  return out;
}

ShrunkGroups rebuild_process_groups(const ProcessGroups& original,
                                    const std::vector<int>& lost) {
  // Same computation as shrink, but the caller contract differs: `original`
  // must be the seed layout and `lost` the *current* lost set, so a grow
  // event that empties the set reproduces the seed groups exactly.
  return shrink_process_groups(original, lost);
}

}  // namespace mcrdl
