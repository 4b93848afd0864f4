#include "src/core/logger.h"

#include <algorithm>

namespace mcrdl {

void CommLogger::record(CommRecord record) {
  if (!enabled_) return;
  by_rank_[record.rank].push_back(std::move(record));
}

void CommLogger::clear() {
  by_rank_.clear();
}

std::vector<CommRecord> CommLogger::records() const {
  std::vector<CommRecord> merged;
  std::size_t total = 0;
  for (const auto& [rank, bucket] : by_rank_) total += bucket.size();
  merged.reserve(total);
  // std::map iterates in ascending rank order, which is the canonical order.
  for (const auto& [rank, bucket] : by_rank_) {
    merged.insert(merged.end(), bucket.begin(), bucket.end());
  }
  return merged;
}

SimTime CommLogger::interval_union(std::vector<std::pair<SimTime, SimTime>> intervals) {
  if (intervals.empty()) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  SimTime total = 0.0;
  SimTime cur_start = intervals.front().first;
  SimTime cur_end = intervals.front().second;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    const auto& [s, e] = intervals[i];
    if (s > cur_end) {
      total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  total += cur_end - cur_start;
  return total;
}

SimTime CommLogger::comm_time(int rank) const {
  std::vector<std::pair<SimTime, SimTime>> intervals;
  auto it = by_rank_.find(rank);
  if (it != by_rank_.end()) {
    for (const auto& r : it->second) intervals.emplace_back(r.start, r.end);
  }
  return interval_union(std::move(intervals));
}

std::map<std::string, SimTime> CommLogger::time_by_op(int rank) const {
  std::map<std::string, SimTime> out;
  auto it = by_rank_.find(rank);
  if (it != by_rank_.end()) {
    for (const auto& r : it->second) out[op_name(r.op)] += r.end - r.start;
  }
  return out;
}

std::map<std::string, SimTime> CommLogger::time_by_backend(int rank) const {
  std::map<std::string, SimTime> out;
  auto it = by_rank_.find(rank);
  if (it != by_rank_.end()) {
    for (const auto& r : it->second) out[r.backend] += r.end - r.start;
  }
  return out;
}

std::size_t CommLogger::bytes_moved(int rank) const {
  std::size_t total = 0;
  auto it = by_rank_.find(rank);
  if (it != by_rank_.end()) {
    for (const auto& r : it->second) total += r.bytes;
  }
  return total;
}

int CommLogger::op_count(int rank) const {
  auto it = by_rank_.find(rank);
  return it == by_rank_.end() ? 0 : static_cast<int>(it->second.size());
}

}  // namespace mcrdl
