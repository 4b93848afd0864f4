#include "src/models/workload.h"

namespace mcrdl::models {

SimTime flops_time_us(double flops, double peak_tflops, double efficiency) {
  MCRDL_REQUIRE(peak_tflops > 0.0 && efficiency > 0.0, "invalid compute model parameters");
  // peak_tflops TFLOP/s == peak_tflops * 1e6 FLOP/us.
  return flops / (peak_tflops * 1e6 * efficiency);
}

TrainingHarness::TrainingHarness(net::SystemConfig system) : system_(std::move(system)) {}

RunResult TrainingHarness::run(const Model& model, const CommPlan& plan,
                               const FrameworkModel& framework, HarnessOptions options,
                               const TuningTable* table, int world) {
  if (world < 0) world = system_.world_size();
  MCRDL_REQUIRE(world >= 1 && world <= system_.world_size(), "world out of range for system");
  MCRDL_REQUIRE(options.measured_steps >= 1, "need at least one measured step");

  net::SystemConfig sys = system_;
  sys.num_nodes = (world + sys.gpus_per_node - 1) / sys.gpus_per_node;

  ClusterContext cluster(sys, &stacks_);
  cluster.contention() = options.contention;
  McrDlOptions mcr_opts = options.mcr_options;
  mcr_opts.logging_enabled = true;
  if (!framework.supports_fusion) mcr_opts.fusion.enabled = false;
  McrDl mcr(&cluster, mcr_opts);
  mcr.init(plan.backends_needed(available_backend_names()));
  if (plan.use_auto) {
    MCRDL_REQUIRE(table != nullptr, "tuned plan needs a tuning table");
    mcr.set_tuning_table(*table);
  }

  std::vector<int> ranks;
  for (int r = 0; r < world; ++r) ranks.push_back(r);

  RunResult result;
  result.plan_name = plan.name;
  result.model_name = model.name();
  result.world = world;

  SimTime measure_start = 0.0;
  SimTime compute_before = 0.0;
  cluster.run_spmd(world, [&](int rank) {
    Api api = world == cluster.world_size() ? mcr.on(rank) : mcr.on(rank).group(ranks);
    CommIssuer comm(api, plan, framework);
    model.run_steps(comm, rank, options.warmup_steps);
    comm.synchronize();
    // Align all ranks, reset instrumentation, then measure.
    api.barrier(plan.use_auto ? mcr.get_backends().front() : plan.default_backend);
    if (rank == 0) {
      mcr.logger().clear();
      measure_start = cluster.scheduler().now();
      compute_before = cluster.device(0)->default_stream()->busy_time();
    }
    model.run_steps(comm, rank, options.measured_steps);
    comm.synchronize();
    api.barrier(plan.use_auto ? mcr.get_backends().front() : plan.default_backend);
    if (rank == 0) {
      const double steps = options.measured_steps;
      result.step_time_us = (cluster.scheduler().now() - measure_start) / steps;
      result.compute_time_us =
          (cluster.device(0)->default_stream()->busy_time() - compute_before) / steps;
    }
  });

  result.comm_time_us = mcr.logger().comm_time(0) / options.measured_steps;
  for (auto& [op, t] : mcr.logger().time_by_op(0)) {
    result.comm_by_op_us[op] = t / options.measured_steps;
  }
  for (auto& [b, t] : mcr.logger().time_by_backend(0)) {
    result.comm_by_backend_us[b] = t / options.measured_steps;
  }
  result.throughput = model.samples_per_step(world) / (result.step_time_us / kSecond);
  result.tune_fallbacks = cluster.metrics().counter_total("tune.fallback");
  return result;
}

double scaling_efficiency(const RunResult& at_p, const RunResult& at_p0) {
  MCRDL_REQUIRE(at_p0.world >= 1 && at_p.world >= at_p0.world, "invalid efficiency baseline");
  const double ideal = at_p0.throughput * (static_cast<double>(at_p.world) / at_p0.world);
  return ideal > 0.0 ? at_p.throughput / ideal : 0.0;
}

}  // namespace mcrdl::models
