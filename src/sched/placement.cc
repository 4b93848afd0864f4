#include "src/sched/placement.h"

#include <algorithm>

namespace mcrdl::sched {

RankAllocator::RankAllocator(int world, int alignment) : world_(world), alignment_(alignment) {
  MCRDL_REQUIRE(world >= 1, "allocator needs a non-empty world");
  MCRDL_REQUIRE(alignment >= 1, "alignment must be >= 1");
  free_.push_back(RankRange{0, world});
  update_largest_runs();
}

int RankAllocator::fit_begin(const RankRange& range, int count) const {
  const int align = count >= alignment_ ? alignment_ : 1;
  const int begin = ((range.begin + align - 1) / align) * align;
  return begin + count <= range.end() ? begin : -1;
}

void RankAllocator::update_largest_runs() {
  largest_run_ = 0;
  largest_aligned_run_ = 0;
  for (const RankRange& range : free_) {
    const int aligned_begin = ((range.begin + alignment_ - 1) / alignment_) * alignment_;
    largest_run_ = std::max(largest_run_, range.count);
    largest_aligned_run_ = std::max(largest_aligned_run_, range.end() - aligned_begin);
  }
}

bool RankAllocator::fits(int count) const {
  // fit_begin aligns only counts of a node or more.
  return count >= 1 && count <= (count >= alignment_ ? largest_aligned_run_ : largest_run_);
}

std::optional<RankRange> RankAllocator::allocate(int count) {
  MCRDL_REQUIRE(count >= 1, "cannot allocate an empty rank range");
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const int begin = fit_begin(free_[i], count);
    if (begin < 0) continue;
    const RankRange taken{begin, count};
    const RankRange before{free_[i].begin, begin - free_[i].begin};
    const RankRange after{taken.end(), free_[i].end() - taken.end()};
    auto it = free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    if (after.count > 0) it = free_.insert(it, after);
    if (before.count > 0) free_.insert(it, before);
    update_largest_runs();
    return taken;
  }
  return std::nullopt;
}

void RankAllocator::release(const RankRange& range) {
  MCRDL_REQUIRE(range.count >= 1 && range.begin >= 0 && range.end() <= world_,
                "released range outside the world");
  auto it = std::lower_bound(
      free_.begin(), free_.end(), range,
      [](const RankRange& a, const RankRange& b) { return a.begin < b.begin; });
  MCRDL_REQUIRE((it == free_.end() || range.end() <= it->begin) &&
                    (it == free_.begin() || std::prev(it)->end() <= range.begin),
                "released range overlaps a free range (double free?)");
  it = free_.insert(it, range);
  // Coalesce with the successor, then the predecessor.
  if (std::next(it) != free_.end() && it->end() == std::next(it)->begin) {
    it->count += std::next(it)->count;
    free_.erase(std::next(it));
  }
  if (it != free_.begin() && std::prev(it)->end() == it->begin) {
    std::prev(it)->count += it->count;
    free_.erase(it);
  }
  update_largest_runs();
}

int RankAllocator::free_ranks() const {
  int total = 0;
  for (const RankRange& range : free_) total += range.count;
  return total;
}

}  // namespace mcrdl::sched
