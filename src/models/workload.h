// Workload-model infrastructure: the Model interface every simulated DL
// training job implements, and the TrainingHarness that runs one
// (model, system, communication plan, framework) combination SPMD and
// reports the metrics the paper's figures use — throughput, step time,
// compute-vs-communication split, and the per-operation breakdown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/models/comm_plan.h"
#include "src/sim/stack_pool.h"

namespace mcrdl::models {

// Converts model FLOPs into device time given the achieved fraction of the
// GPU's peak throughput.
SimTime flops_time_us(double flops, double peak_tflops, double efficiency);

class Model {
 public:
  virtual ~Model() = default;
  virtual std::string name() const = 0;
  // Global training samples processed per step at the given world size.
  virtual double samples_per_step(int world) const = 0;
  // Runs `steps` full training steps; per-rank state lives inside the call.
  virtual void run_steps(CommIssuer& comm, int rank, int steps) const = 0;
};

struct RunResult {
  std::string plan_name;
  std::string model_name;
  int world = 0;
  double step_time_us = 0.0;
  double throughput = 0.0;          // samples/second (virtual time)
  double comm_time_us = 0.0;        // per-step union of comm intervals, rank 0
  double compute_time_us = 0.0;     // per-step default-stream busy time, rank 0
  std::map<std::string, double> comm_by_op_us;       // per step
  std::map<std::string, double> comm_by_backend_us;  // per step
  // "auto" ops the tuning table had no entry for, which fell back to the
  // default backend (the run's "tune.fallback" counter, warmup included).
  std::uint64_t tune_fallbacks = 0;

  double comm_fraction() const {
    const double busy = comm_time_us + compute_time_us;
    return busy > 0.0 ? comm_time_us / busy : 0.0;
  }
};

struct HarnessOptions {
  int warmup_steps = 1;
  int measured_steps = 3;
  McrDlOptions mcr_options;  // fusion/compression settings for the run
  // Bandwidth-sharing factors from co-scheduled tenants, installed on the
  // run's cluster before any operation issues (src/sched/ measures each job
  // under the load the serving scheduler computed). Identity by default.
  net::ContentionScale contention;
};

class TrainingHarness {
 public:
  explicit TrainingHarness(net::SystemConfig system);

  // Runs the model under the given plan/framework; `world` ranks
  // participate (defaults to the whole system). A tuning table is required
  // when the plan uses "auto".
  RunResult run(const Model& model, const CommPlan& plan, const FrameworkModel& framework,
                HarnessOptions options = {}, const TuningTable* table = nullptr, int world = -1);

  const net::SystemConfig& system() const { return system_; }
  // Actor stacks mapped across every run() so far.
  std::size_t stacks_mapped() const { return stacks_.mapped(); }

 private:
  net::SystemConfig system_;
  // Lent to every run()'s cluster, so consecutive runs reuse actor stacks.
  sim::StackPool stacks_;
};

// Scaling efficiency relative to the smallest scale in a sweep:
// eff(P) = (throughput(P) / throughput(P0)) / (P / P0).
double scaling_efficiency(const RunResult& at_p, const RunResult& at_p0);

}  // namespace mcrdl::models
