// The benchmark's four workloads, driven through the simulator's public API
// only (ClusterContext, McrDl/Api, models::CommIssuer + Model::run_steps,
// TuningSuite, sched::ServeScheduler). See README.md for why each exists and
// what every metric means.
//
//   moe256    DS-MoE 350M under MCR-DL-T on 256 Lassen ranks (paper Fig 8's
//             largest point): actor handoff and backend rendezvous.
//   dispatch  8 ranks, phantom tensors, a seeded all_reduce / all_to_all_single
//             / broadcast mix on "auto": per-op pipeline and issue cost.
//   payload   8 ranks, materialised F32 tensors, all_reduce + all_gather on
//             "auto" with values verified: tensor math.
//   serve     ServeScheduler replaying a seeded ~20k-job trace with a chaos
//             window on a warm cost cache: the sched layer alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured loop length (split in half when tracing)
  bool trace = false;     // false: end-to-end metrics; true: per-layer metrics
  // Set-up is timed over repeated passes after one untimed pass: at least
  // `setup_reps`, and more (up to 31) until `setup_budget_s` is spent.
  int setup_reps = 5;
  double setup_budget_s = 3.0;
  std::string spans_out;  // traced run: file for the kept spans ("" = none)
};

const std::vector<std::string>& workload_names();

// Names and units of the metrics run_workload emits, in emission order.
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();

// Runs one workload. Throws mcrdl::InvalidArgument for an unknown workload
// name; failures of the simulator during the measured loop are counted as
// failed checks instead.
Result run_workload(const Options& options);

}  // namespace perfbench
