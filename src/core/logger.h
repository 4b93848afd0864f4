// Communication logging (paper Section V-E): every operation routed through
// MCR-DL can be recorded with its backend, payload and time span. The
// aggregations below generate the paper's Figure 1 (compute-vs-comm split
// and per-operation breakdown) and Figure 12 (communication-overhead
// reduction).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/net/comm_types.h"

namespace mcrdl {

struct CommRecord {
  int rank = 0;
  OpType op = OpType::Barrier;
  std::string backend;
  std::size_t bytes = 0;
  SimTime start = 0.0;  // when the operation was posted
  SimTime end = 0.0;    // when it completed
  bool fused = false;
  bool compressed = false;
  // --- resilience metadata (src/fault/) ------------------------------------
  int attempts = 1;               // issue attempts, including retries
  bool rerouted = false;          // completed on a different backend than requested
  std::string requested_backend;  // original routing choice when rerouted
  std::string fault;              // last injected failure seen: "", "transient",
                                  // "unavailable", "rank_lost"
  // --- elastic recovery (src/fault/recovery.h) ------------------------------
  std::uint64_t epoch = 0;  // recovery epoch the op finally completed under
  bool recovered = false;   // replayed on a shrunk communicator after rank loss
};

// Records are bucketed per rank so the exported order is canonical:
// records() merges buckets in ascending rank order, preserving each rank's
// completion order within its bucket. Per-rank completion order is a pure
// function of virtual time (the golden-trace tests pin this).
class CommLogger {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void record(CommRecord record);
  void clear();
  // Rank-major canonical merge; returned by value (the internal buckets can
  // keep growing while the caller iterates).
  std::vector<CommRecord> records() const;

  // Wall-clock (virtual) communication time on a rank: the union of all
  // operation intervals, so overlapping operations are not double-counted.
  SimTime comm_time(int rank) const;
  // Sum of per-operation durations, grouped by operation name — the
  // "communication breakdown" of Fig 1(b).
  std::map<std::string, SimTime> time_by_op(int rank) const;
  std::map<std::string, SimTime> time_by_backend(int rank) const;
  std::size_t bytes_moved(int rank) const;
  int op_count(int rank) const;

  // Length of the union of a set of [start, end) intervals.
  static SimTime interval_union(std::vector<std::pair<SimTime, SimTime>> intervals);

 private:
  bool enabled_ = false;
  std::map<int, std::vector<CommRecord>> by_rank_;
};

}  // namespace mcrdl
