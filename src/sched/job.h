// Multi-tenant job descriptors for the serving layer (DESIGN.md §10).
//
// A Job is one tenant's training workload admitted onto the shared cluster:
// which model plan it runs (the comm patterns from src/models/), how many
// ranks of the shared world it needs, and the QoS class that sets both its
// admission quota and its bandwidth weight when links are contended. The
// scheduler (src/sched/serve.h) turns a trace of JobSpecs into JobRecords.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace mcrdl::sched {

// Service classes in descending priority. The weight enters the contention
// model (a Gold job keeps 4x the fabric share of a Bronze job under
// oversubscription) and the admission order (queued Gold jobs start first).
enum class QosClass { Gold, Silver, Bronze };

inline constexpr int kNumQosClasses = 3;

const char* qos_name(QosClass qos);
// Inverse of qos_name; returns false if the name is unknown.
bool qos_from_name(const std::string& name, QosClass& out);
// Bandwidth weight under contention: Gold 4, Silver 2, Bronze 1.
double qos_weight(QosClass qos);
// All classes in priority order (Gold first).
const std::vector<QosClass>& all_qos_classes();

// Which workload model (src/models/) the job trains.
enum class JobModel { MoE, DLRM, Megatron, ResNet };

inline constexpr int kNumJobModels = 4;

const char* job_model_name(JobModel model);
bool job_model_from_name(const std::string& name, JobModel& out);

// One job in an arrival trace.
struct JobSpec {
  std::uint64_t id = 0;
  std::string tenant;                 // owning tenant, e.g. "tenant-3"
  JobModel model = JobModel::ResNet;
  int ranks = 1;                      // world slice requested (contiguous)
  QosClass qos = QosClass::Silver;
  SimTime arrival_us = 0.0;
  int steps = 1;                      // training steps to run

  // Throws InvalidArgument on nonsense (no tenant, ranks < 1, steps < 1,
  // negative arrival, or a tenant name with whitespace, which would corrupt
  // the trace text format).
  void validate() const;
};

enum class JobState { Queued, Running, Completed, Rejected };

const char* job_state_name(JobState state);

// A contiguous slice [begin, begin + count) of the shared world.
struct RankRange {
  int begin = 0;
  int count = 0;

  int end() const { return begin + count; }
  bool overlaps(const RankRange& other) const {
    return begin < other.end() && other.begin < end();
  }
};

// Maps a tenant-local rank list (e.g. a ProcessGroups tp_group over
// [0, range.count)) onto the global ranks of the tenant's slice.
std::vector<int> to_global(const RankRange& range, const std::vector<int>& local_ranks);

// Lifecycle record the scheduler maintains per job.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::Queued;
  RankRange placement;          // valid once Running
  SimTime start_us = 0.0;       // when the job reached hardware
  SimTime finish_us = 0.0;      // when its last step completed
  std::string reject_reason;    // set when state == Rejected

  SimTime queue_wait_us() const { return start_us - spec.arrival_us; }
  // Sojourn time — what the tenant experiences (queueing + service).
  SimTime latency_us() const { return finish_us - spec.arrival_us; }
};

}  // namespace mcrdl::sched
