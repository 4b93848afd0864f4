#include "bench/experiments.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "src/coll/spec.h"
#include "src/common/status.h"
#include "src/core/mcr_dl.h"
#include "src/tune/online_tuner.h"
#include "src/tune/tuning.h"
#include "src/models/cnn3d.h"
#include "src/models/dlrm.h"
#include "src/models/megatron.h"
#include "src/models/moe.h"
#include "src/models/workload.h"
#include "src/net/cost.h"
#include "src/net/topology.h"
#include "src/obs/json.h"

namespace mcrdl::bench {

const BenchSeries* BenchReport::find(const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const BenchPoint& BenchReport::at(const std::string& name, int world) const {
  const BenchSeries* s = find(name);
  if (s != nullptr) {
    for (const auto& p : s->points) {
      if (p.world == world) return p;
    }
  }
  throw InvalidArgument("no bench point for series '" + name + "' at world " +
                        std::to_string(world));
}

namespace {

void append_number(std::ostringstream& out, double v) {
  std::ostringstream num;
  num.precision(12);
  num << v;
  out << num.str();
}

}  // namespace

std::string to_bench_json(const BenchReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kBenchSchema << "\",\"experiment\":\""
      << obs::json_escape(report.experiment) << "\",\"series\":[";
  bool first_series = true;
  for (const auto& s : report.series) {
    if (!first_series) out << ",";
    first_series = false;
    out << "{\"name\":\"" << obs::json_escape(s.name) << "\",\"backend\":\""
        << obs::json_escape(s.backend) << "\",\"points\":[";
    bool first_point = true;
    for (const auto& p : s.points) {
      if (!first_point) out << ",";
      first_point = false;
      out << "{\"world\":" << p.world << ",\"bytes\":" << p.bytes << ",\"virtual_us\":";
      append_number(out, p.virtual_us);
      out << ",\"items_per_s\":";
      append_number(out, p.items_per_s);
      out << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

// --- figure 2 ---------------------------------------------------------------

BenchReport run_fig2(const Fig2Options& options) {
  Fig2Options opts = options;
  if (opts.sizes.empty()) {
    opts.sizes = {1u << 10,   4u << 10, 16u << 10, 64u << 10, 256u << 10,
                  1u << 20, 4u << 20, 16u << 20,  64u << 20};
  }
  if (opts.backends.empty()) opts.backends = {"mv2-gdr", "ompi", "nccl", "sccl"};
  if (opts.quick) {
    // CI smoke grid: two backends, four sizes, one iteration.
    opts.backends.resize(std::min<std::size_t>(opts.backends.size(), 2));
    std::vector<std::size_t> trimmed;
    for (std::size_t i = 0; i < opts.sizes.size() && trimmed.size() < 4; i += 2) {
      trimmed.push_back(opts.sizes[i]);
    }
    opts.sizes = trimmed;
    opts.iterations = 1;
    opts.warmup = 0;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "fig2 runs on Lassen (4 GPUs per node)");

  TuningSuite suite(net::SystemConfig::lassen(opts.world / 4));
  TuningConfig cfg;
  cfg.backends = opts.backends;
  cfg.ops = {OpType::AllReduce, OpType::AllToAllSingle};
  cfg.sizes = opts.sizes;
  cfg.world_sizes = {opts.world};
  cfg.iterations = opts.iterations;
  cfg.warmup = opts.warmup;
  (void)suite.generate(cfg);

  BenchReport report;
  report.experiment = "fig2";
  for (OpType op : cfg.ops) {
    for (const auto& backend : opts.backends) {
      BenchSeries series;
      series.name = std::string(op_name(op)) + "/" + backend;
      series.backend = backend;
      for (std::size_t bytes : opts.sizes) {
        BenchPoint p;
        p.world = opts.world;
        p.bytes = bytes;
        p.virtual_us = suite.measured(backend, op, opts.world, bytes);
        series.points.push_back(p);
      }
      report.series.push_back(std::move(series));
    }
  }
  return report;
}

// --- figures 8, 9 and 10 ----------------------------------------------------

std::string plan_backend_label(const models::CommPlan& plan) {
  if (plan.use_auto) return "auto";
  if (!plan.per_op.empty()) return "mixed";
  return plan.default_backend;
}

namespace {

// One figure's model-scaling sweep: the plans it compares, the system it runs
// on, and the tuning sweep that feeds its "auto" plan at each scale.
struct ScalingSweep {
  std::string experiment;
  std::vector<int> scales;
  int warmup_steps = 1;
  int measured_steps = 2;
  int gpus_per_node = 4;
  net::SystemConfig (*make_system)(int) = nullptr;
  std::vector<models::CommPlan> plans;
  std::vector<std::string> tuning_backends;
  std::vector<OpType> tuning_ops;
  std::vector<std::size_t> tuning_sizes;
};

// Figures 8 and 9 compare the same four plans, tuned across NCCL and MV2-GDR.
ScalingSweep mixing_sweep(std::string experiment, std::vector<int> scales, int warmup_steps,
                          int measured_steps, int gpus_per_node,
                          net::SystemConfig (*make_system)(int),
                          std::vector<std::size_t> tuning_sizes) {
  ScalingSweep sweep;
  sweep.experiment = std::move(experiment);
  sweep.scales = std::move(scales);
  sweep.warmup_steps = warmup_steps;
  sweep.measured_steps = measured_steps;
  sweep.gpus_per_node = gpus_per_node;
  sweep.make_system = make_system;
  sweep.plans = {models::CommPlan::pure("mv2-gdr", "Pure MVAPICH2-GDR"),
                 models::CommPlan::pure("nccl", "Pure NCCL"), models::CommPlan::mcr_dl_mixed(),
                 models::CommPlan::mcr_dl_tuned()};
  sweep.tuning_backends = {"nccl", "mv2-gdr"};
  sweep.tuning_ops = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Barrier};
  sweep.tuning_sizes = std::move(tuning_sizes);
  return sweep;
}

template <typename MakeModel>
BenchReport run_scaling(const ScalingSweep& sweep, const ScalingOptions& options,
                        MakeModel make_model) {
  ScalingOptions opts = options;
  if (opts.scales.empty()) opts.scales = sweep.scales;
  if (opts.warmup_steps < 0) opts.warmup_steps = sweep.warmup_steps;
  if (opts.measured_steps < 0) opts.measured_steps = sweep.measured_steps;
  if (opts.quick) {
    opts.scales.resize(std::min<std::size_t>(opts.scales.size(), 2));
    opts.warmup_steps = 0;
    opts.measured_steps = 1;
  }

  models::HarnessOptions hopts;
  hopts.warmup_steps = opts.warmup_steps;
  hopts.measured_steps = opts.measured_steps;

  BenchReport report;
  report.experiment = sweep.experiment;
  for (const auto& plan : sweep.plans) {
    BenchSeries series;
    series.name = plan.name;
    series.backend = plan_backend_label(plan);
    report.series.push_back(std::move(series));
  }

  for (int gpus : opts.scales) {
    MCRDL_REQUIRE(gpus % sweep.gpus_per_node == 0, "scale must fill whole nodes");
    net::SystemConfig sys = sweep.make_system(gpus / sweep.gpus_per_node);
    models::TrainingHarness harness(sys);
    auto model = make_model(sys);

    // The tuned plan consumes a tuning table generated at this scale for the
    // ops and message range the model actually uses.
    TuningSuite suite(sys);
    TuningConfig tcfg;
    tcfg.backends = sweep.tuning_backends;
    tcfg.ops = sweep.tuning_ops;
    tcfg.sizes = sweep.tuning_sizes;
    tcfg.world_sizes = {gpus};
    tcfg.iterations = 1;
    TuningTable table = suite.generate(tcfg);

    for (std::size_t i = 0; i < sweep.plans.size(); ++i) {
      const models::CommPlan& plan = sweep.plans[i];
      const models::RunResult result =
          harness.run(model, plan, models::FrameworkModel::raw(), hopts,
                      plan.use_auto ? &table : nullptr);
      BenchPoint p;
      p.world = gpus;
      p.bytes = 0;  // whole-step measurement, not a message-size sweep
      p.virtual_us = result.step_time_us;
      p.items_per_s = result.throughput;
      report.series[i].points.push_back(p);
    }
  }
  return report;
}

}  // namespace

BenchReport run_fig8(const ScalingOptions& options) {
  return run_scaling(
      mixing_sweep("fig8", {16, 32, 64, 128, 256}, /*warmup=*/1, /*measured=*/2,
                   /*gpus_per_node=*/4, &net::SystemConfig::lassen,
                   {64u << 10, 1u << 20, 4u << 20, 16u << 20, 32u << 20}),
      options,
      [](const net::SystemConfig& sys) { return models::DSMoEModel(models::DSMoEConfig{}, sys); });
}

BenchReport run_fig9(const ScalingOptions& options) {
  return run_scaling(
      mixing_sweep("fig9", {8, 16, 32}, /*warmup=*/2, /*measured=*/6,
                   /*gpus_per_node=*/8, &net::SystemConfig::theta_gpu,
                   {256u << 10, 1u << 20, 4u << 20, 8u << 20, 16u << 20}),
      options,
      [](const net::SystemConfig& sys) { return models::DLRMModel(models::DLRMConfig{}, sys); });
}

// SCCL's synthesized schedules win the huge ZeRO collectives and MV2-GDR the
// small per-layer operations, so the tuned plan mixes exactly those two.
BenchReport run_fig10() {
  ScalingSweep sweep;
  sweep.experiment = "fig10";
  sweep.scales = {8, 16, 32};
  sweep.gpus_per_node = 8;
  sweep.make_system = &net::SystemConfig::theta_gpu;
  models::CommPlan tuned = models::CommPlan::mcr_dl_tuned();
  tuned.name = "MCR-DL";
  sweep.plans = {models::CommPlan::pure("mv2-gdr", "Pure MVAPICH2-GDR"),
                 models::CommPlan::pure("sccl", "Pure SCCL"), tuned};
  sweep.tuning_backends = {"sccl", "mv2-gdr"};
  sweep.tuning_ops = {OpType::AllReduce, OpType::ReduceScatter, OpType::AllGather,
                      OpType::Barrier};
  sweep.tuning_sizes = {32u << 10, 1u << 20, 16u << 20, 128u << 20};
  return run_scaling(sweep, ScalingOptions{}, [](const net::SystemConfig& sys) {
    return models::MegatronDenseModel(models::MegatronConfig{}, sys);
  });
}

// --- online adaptation ------------------------------------------------------

namespace {

// One blocking all_reduce loop through the full facade; returns rank 0's
// per-step durations. `mutate_options` tweaks the McrDlOptions (fault plan,
// online tuner); `after_run` sees the McrDl before finalize (tuner counters).
std::vector<double> run_auto_loop(const net::SystemConfig& sys, const AdaptOptions& opts,
                                  const std::vector<std::string>& backends,
                                  const std::string& backend_string, const TuningTable* table,
                                  const std::function<void(McrDlOptions&)>& mutate_options,
                                  const std::function<void(McrDl&)>& after_run) {
  ClusterContext cluster(sys);
  McrDlOptions mopts;
  if (mutate_options) mutate_options(mopts);
  McrDl mcr(&cluster, mopts);
  mcr.init(backends);
  if (table != nullptr) mcr.set_tuning_table(*table);
  std::vector<double> step_us(static_cast<std::size_t>(opts.steps), 0.0);
  const std::int64_t numel =
      std::max<std::int64_t>(static_cast<std::int64_t>(opts.bytes / 4), 1);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int s = 0; s < opts.steps; ++s) {
      const SimTime start = cluster.scheduler().now();
      Tensor t = Tensor::phantom({numel}, DType::F32, dev);
      api.all_reduce(backend_string, t, ReduceOp::Sum, /*async_op=*/false);
      api.synchronize();
      if (rank == 0) step_us[static_cast<std::size_t>(s)] = cluster.scheduler().now() - start;
    }
  });
  if (after_run) after_run(mcr);
  mcr.finalize();
  return step_us;
}

double median_of(std::vector<double> v) {
  MCRDL_REQUIRE(!v.empty(), "median of an empty window");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median step time of the run's final window — robust to the occasional
// re-probe of the quarantined backend, which is exploration cost rather
// than steady-state routing.
double last_window_median(const std::vector<double>& steps, int window) {
  const std::size_t w = static_cast<std::size_t>(window);
  return median_of(std::vector<double>(steps.end() - static_cast<std::ptrdiff_t>(w), steps.end()));
}

BenchSeries windowed_series(const std::string& name, const std::string& backend,
                            const std::vector<double>& steps, const AdaptOptions& opts) {
  BenchSeries series;
  series.name = name;
  series.backend = backend;
  for (int s = 0; s + opts.window <= static_cast<int>(steps.size()); s += opts.window) {
    double sum = 0.0;
    for (int i = s; i < s + opts.window; ++i) sum += steps[static_cast<std::size_t>(i)];
    BenchPoint p;
    p.world = opts.world;
    p.bytes = static_cast<std::size_t>(s);  // window start step — the time axis
    p.virtual_us = sum / opts.window;
    p.items_per_s = p.virtual_us > 0.0 ? 1e6 / p.virtual_us : 0.0;
    series.points.push_back(p);
  }
  return series;
}

}  // namespace

AdaptReport run_adapt(const AdaptOptions& options) {
  AdaptOptions opts = options;
  if (opts.quick) {
    opts.steps = 96;
    opts.window = 12;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "adapt runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.steps >= 3 * opts.window, "adapt needs >= 3 windows of steps");
  const net::SystemConfig sys = net::SystemConfig::lassen(opts.world / 4);
  const std::vector<std::string> backends = {"nccl", "mv2-gdr"};

  // Calibrate: a short clean loop per backend finds the static winner (the
  // backend to degrade) and the best undegraded alternative.
  AdaptOptions calib = opts;
  calib.steps = 8;
  std::map<std::string, double> calib_us;
  for (const auto& name : backends) {
    calib_us[name] = median_of(
        run_auto_loop(sys, calib, backends, name, nullptr, nullptr, nullptr));
  }
  std::string winner = backends.front();
  for (const auto& name : backends) {
    if (calib_us[name] < calib_us[winner]) winner = name;
  }
  std::string alt = backends.front() == winner ? backends[1] : backends.front();
  for (const auto& name : backends) {
    if (name != winner && calib_us[name] < calib_us[alt]) alt = name;
  }

  // The static table the paper's workflow would have produced: the winner at
  // this grid point. It doubles as the online tuner's prior.
  TuningTable table;
  table.set(OpType::AllReduce, opts.world, tune::OnlineTuner::bucket(opts.bytes), winner);

  // Degrade the winner's links after the first third of the run (paced by
  // its own calibrated step time, so the instant scales with the grid).
  const double degrade_from_us = calib_us[winner] * (opts.steps / 3.0);
  const auto degraded = [&](McrDlOptions& m) {
    m.fault.enabled = true;
    m.fault.plan.specs.push_back(fault::FaultSpec::degrade_links(
        winner, opts.degrade_factor, fault::LinkScope::All, degrade_from_us));
  };

  AdaptReport report;
  report.degraded_backend = winner;
  report.adapted_backend = alt;
  report.degrade_from_us = degrade_from_us;
  report.bench.experiment = "adapt";

  const std::vector<double> static_steps =
      run_auto_loop(sys, opts, backends, "auto", &table, degraded, nullptr);
  const std::vector<double> online_steps = run_auto_loop(
      sys, opts, backends, "auto", &table,
      [&](McrDlOptions& m) {
        degraded(m);
        m.online_tuning.enabled = true;
        m.online_tuning.seed = opts.seed;
      },
      [&](McrDl& mcr) {
        const tune::OnlineTuner* tuner = mcr.online_tuner();
        report.switches = tuner->switches();
        report.quarantines = tuner->quarantines();
        report.learned_table = mcr.online_tuner()->to_table().serialize();
      });
  const std::vector<double> alt_steps =
      run_auto_loop(sys, opts, backends, alt, nullptr, nullptr, nullptr);

  report.bench.series.push_back(windowed_series("static", "auto", static_steps, opts));
  report.bench.series.push_back(windowed_series("online", "auto", online_steps, opts));
  report.bench.series.push_back(windowed_series("alt-best", alt, alt_steps, opts));
  report.static_post_us = last_window_median(static_steps, opts.window);
  report.online_post_us = last_window_median(online_steps, opts.window);
  report.alt_best_us = last_window_median(alt_steps, opts.window);
  return report;
}

// --- resilience -------------------------------------------------------------

namespace {

struct ResilienceRun {
  std::vector<double> step_us;      // rank 0 durations, phase one then two
  std::vector<double> done_at_us;   // rank 0 completion instants, same order
  std::size_t phase_two_begin = 0;  // index of phase two's first step
  fault::ResilienceReport report;
  int alive = 0;                    // ranks alive at the end of the run
};

// The shared two-phase loop: lose `lost_rank` at `loss_at`, park every rank
// until just past `rejoin_at`, run phase two over whatever is alive. The
// shrink-only run simply omits the rank_rejoin spec, so the casualty stays
// dead through phase two and the two runs differ in nothing but the grow.
ResilienceRun run_resilience_loop(const ResilienceOptions& opts, SimTime loss_at,
                                  SimTime rejoin_at, bool with_rejoin) {
  const net::SystemConfig sys = net::SystemConfig::lassen(opts.world / 4);
  ClusterContext cluster(sys);
  McrDlOptions mopts;
  mopts.fault.enabled = true;
  const SimTime silent_from = std::max(0.0, loss_at - 2.0 * opts.interval_us);
  mopts.fault.plan.specs.push_back(
      fault::FaultSpec::straggler(opts.lost_rank, 10.0 * loss_at + 1000.0, silent_from, loss_at));
  mopts.fault.plan.specs.push_back(fault::FaultSpec::lose_rank(opts.lost_rank, loss_at));
  if (with_rejoin) {
    mopts.fault.plan.specs.push_back(fault::FaultSpec::rejoin_rank(opts.lost_rank, rejoin_at));
  }
  McrDl mcr(&cluster, mopts);
  mcr.init({"nccl", "mv2-gdr"});

  ResilienceRun out;
  const std::int64_t numel =
      std::max<std::int64_t>(static_cast<std::int64_t>(opts.bytes / 4), 1);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    const auto one_step = [&] {
      const SimTime start = cluster.scheduler().now();
      Tensor t = Tensor::phantom({numel}, DType::F32, dev);
      api.all_reduce("nccl", t, ReduceOp::Sum, /*async_op=*/false);
      api.synchronize("nccl");
      if (rank == 0) {
        out.step_us.push_back(cluster.scheduler().now() - start);
        out.done_at_us.push_back(cluster.scheduler().now());
      }
      if (opts.interval_us > 0.0) cluster.scheduler().sleep_for(opts.interval_us);
    };
    for (int s = 0; s < opts.steps; ++s) {
      if (cluster.faults().rank_lost(rank)) break;
      try {
        one_step();
      } catch (const RankLostError&) {
        break;  // the casualty itself; survivors get the op replayed
      }
    }
    if (rank == 0) out.phase_two_begin = out.step_us.size();
    // Virtual-time barrier past the rejoin instant, so the grow event (when
    // planned) fires into an idle cluster in both runs alike.
    const SimTime wake = rejoin_at + opts.interval_us + 1.0;
    if (cluster.scheduler().now() < wake) {
      cluster.scheduler().sleep_for(wake - cluster.scheduler().now());
    }
    for (int s = 0; s < opts.steps; ++s) {
      if (cluster.faults().rank_lost(rank)) break;
      one_step();
    }
  });
  out.report = mcr.failover()->report();
  for (int r = 0; r < opts.world; ++r) {
    if (!cluster.faults().rank_lost(r)) ++out.alive;
  }
  mcr.finalize();
  return out;
}

BenchSeries resilience_step_series(const std::string& name, const ResilienceRun& run,
                                   int world) {
  BenchSeries series;
  series.name = name;
  series.backend = "nccl";
  for (std::size_t s = 0; s < run.step_us.size(); ++s) {
    BenchPoint p;
    p.world = world;
    p.bytes = s;  // step index — the time axis
    p.virtual_us = run.step_us[s];
    p.items_per_s = p.virtual_us > 0.0 ? 1e6 / p.virtual_us : 0.0;
    series.points.push_back(p);
  }
  return series;
}

// Latency from `event_us` to the first collective completed after it.
double recovery_latency_us(const ResilienceRun& run, SimTime event_us) {
  for (double done : run.done_at_us) {
    if (done > event_us) return done - event_us;
  }
  return 0.0;
}

// Post-recovery throughput in rank-steps/s: how much aggregate work the
// cluster completes per second once it has settled after the event.
double post_throughput(const ResilienceRun& run, int alive) {
  std::vector<double> phase_two(run.step_us.begin() +
                                    static_cast<std::ptrdiff_t>(run.phase_two_begin),
                                run.step_us.end());
  if (phase_two.empty()) return 0.0;
  const double med = median_of(std::move(phase_two));
  return med > 0.0 ? static_cast<double>(alive) * 1e6 / med : 0.0;
}

}  // namespace

ResilienceBenchReport run_resilience(const ResilienceOptions& options) {
  ResilienceOptions opts = options;
  if (opts.quick) opts.steps = 6;
  MCRDL_REQUIRE(opts.world % 4 == 0, "resilience runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.world >= 2, "resilience needs a survivor");
  MCRDL_REQUIRE(opts.lost_rank >= 0 && opts.lost_rank < opts.world,
                "lost rank out of range");
  MCRDL_REQUIRE(opts.steps >= 2, "resilience needs at least two steps per phase");

  // The loss lands mid-phase-one; the rejoin far enough past it that the
  // survivors have certainly finished phase one (virtual time is free).
  const SimTime loss_at = 2.0 * (opts.interval_us + 1000.0);
  const SimTime rejoin_at = loss_at + 100.0 * opts.steps * (opts.interval_us + 1000.0);

  const ResilienceRun shrink = run_resilience_loop(opts, loss_at, rejoin_at, false);
  const ResilienceRun rejoin = run_resilience_loop(opts, loss_at, rejoin_at, true);
  MCRDL_REQUIRE(shrink.alive == opts.world - 1, "shrink run did not lose exactly one rank");
  MCRDL_REQUIRE(rejoin.alive == opts.world, "rejoin run did not restore the full world");

  ResilienceBenchReport report;
  report.bench.experiment = "resilience";
  report.loss_at_us = loss_at;
  report.rejoin_at_us = rejoin_at;
  report.shrink_report = shrink.report;
  report.rejoin_report = rejoin.report;
  report.shrink_recovery_us = recovery_latency_us(shrink, loss_at);
  report.rejoin_recovery_us = recovery_latency_us(rejoin, rejoin_at);
  report.shrink_post_rank_steps_per_s = post_throughput(shrink, shrink.alive);
  report.rejoin_post_rank_steps_per_s = post_throughput(rejoin, rejoin.alive);

  report.bench.series.push_back(resilience_step_series("steps/shrink", shrink, opts.world));
  report.bench.series.push_back(resilience_step_series("steps/rejoin", rejoin, opts.world));
  BenchSeries shrink_summary;
  shrink_summary.name = "recovery/shrink";
  shrink_summary.backend = "nccl";
  shrink_summary.points.push_back(BenchPoint{shrink.alive, 0, report.shrink_recovery_us,
                                             report.shrink_post_rank_steps_per_s});
  report.bench.series.push_back(std::move(shrink_summary));
  BenchSeries rejoin_summary;
  rejoin_summary.name = "recovery/rejoin";
  rejoin_summary.backend = "nccl";
  rejoin_summary.points.push_back(BenchPoint{rejoin.alive, 0, report.rejoin_recovery_us,
                                             report.rejoin_post_rank_steps_per_s});
  report.bench.series.push_back(std::move(rejoin_summary));
  return report;
}

// --- hotpath ----------------------------------------------------------------

namespace {

struct HotpathRun {
  double wall_s = 0.0;      // host clock around the dispatch loop
  double virtual_us = 0.0;  // final virtual instant of the run
};

// One dispatch loop: every rank issues `ops_per_rank` async small
// all_reduces, draining its stream every `sync_every` ops. The workload
// (tensor construction, issue cadence) is identical with and without
// bucketing, so the wall-clock delta isolates what bucketing buys.
HotpathRun run_hotpath_loop(const HotpathOptions& opts, std::size_t bytes, bool bucketed) {
  ClusterContext cluster(net::SystemConfig::lassen(opts.world / 4));
  McrDlOptions mopts;
  if (bucketed) {
    mopts.fusion.enabled = true;
    mopts.fusion.buffer_bytes = 64u << 10;  // coalesce a sync_every window
    mopts.fusion.flush_timeout_us = 50.0;
    mopts.fusion.max_tensor_bytes = 16u << 10;
  }
  McrDl mcr(&cluster, mopts);
  mcr.init({"nccl"});
  const int elems = static_cast<int>(std::max<std::size_t>(1, bytes / 4));

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    // Phantom payloads, like every other driver here: the experiment measures
    // the dispatch machinery, and materialized data would bill both paths the
    // same simulated elementwise math. One tensor per in-flight slot, reused
    // every window once the stream is drained — no allocator traffic either.
    std::vector<Tensor> grads;
    grads.reserve(static_cast<std::size_t>(opts.sync_every));
    for (int i = 0; i < opts.sync_every; ++i) {
      grads.push_back(Tensor::phantom({elems}, DType::F32, dev));
    }
    for (int i = 0; i < opts.ops_per_rank; ++i) {
      api.all_reduce("nccl", grads[static_cast<std::size_t>(i % opts.sync_every)],
                     ReduceOp::Sum, true);
      if ((i + 1) % opts.sync_every == 0) api.synchronize();
    }
    api.synchronize();
  });
  HotpathRun run;
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  run.virtual_us = cluster.scheduler().now();
  return run;
}

}  // namespace

BenchReport run_hotpath(const HotpathOptions& options) {
  HotpathOptions opts = options;
  if (opts.sizes.empty()) opts.sizes = {256, 1024, 4096};
  if (opts.quick) {
    opts.sizes = {256, 1024};
    opts.ops_per_rank = 256;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "hotpath runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.ops_per_rank % opts.sync_every == 0,
                "ops_per_rank must be a multiple of sync_every");

  const std::pair<const char*, bool> modes[] = {{"dispatch/fast", false},
                                                {"dispatch/bucketed", true}};

  BenchReport report;
  report.experiment = "hotpath";
  for (const auto& mode : modes) report.series.push_back(BenchSeries{mode.first, "nccl", {}});
  BenchSeries speedup{"speedup", "derived", {}};

  const double total_ops = static_cast<double>(opts.ops_per_rank) * opts.world;
  for (std::size_t bytes : opts.sizes) {
    double ops_per_s[2] = {0.0, 0.0};
    double fast_virtual_us = 0.0;
    for (std::size_t m = 0; m < 2; ++m) {
      const HotpathRun run = run_hotpath_loop(opts, bytes, modes[m].second);
      ops_per_s[m] = run.wall_s > 0.0 ? total_ops / run.wall_s : 0.0;
      if (m == 0) fast_virtual_us = run.virtual_us;
      report.series[m].points.push_back(BenchPoint{opts.world, bytes, run.virtual_us, ops_per_s[m]});
    }
    speedup.points.push_back(BenchPoint{opts.world, bytes, fast_virtual_us,
                                        ops_per_s[0] > 0.0 ? ops_per_s[1] / ops_per_s[0] : 0.0});
  }
  report.series.push_back(std::move(speedup));
  return report;
}

// --- hier -------------------------------------------------------------------

namespace {

// The two levels of a "hier:<intra>+<inter>" string (or the backend itself
// for a flat algorithm) — the engines a hier run must bring up.
std::vector<std::string> hier_engines(std::initializer_list<std::string> algos) {
  std::vector<std::string> engines;
  auto add = [&engines](const std::string& b) {
    if (std::find(engines.begin(), engines.end(), b) == engines.end()) engines.push_back(b);
  };
  for (const std::string& algo : algos) {
    if (std::optional<coll::CompositeSpec> spec = coll::parse(algo)) {
      add(spec->intra);
      if (!spec->inter.empty()) add(spec->inter);
    } else {
      add(algo);
    }
  }
  return engines;
}

// One synchronous allreduce on `algo`, averaged over `iterations` in virtual
// time. Fresh cluster per configuration so the runs are independent. The
// synchronize before the closing barrier matters: stream-backend allreduces
// return once enqueued, so without a drain a flat nccl loop measures zero.
double hier_allreduce_us(const HierOptions& opts, const std::string& algo, int nodes,
                         std::size_t bytes, bool overlap) {
  ClusterContext cluster(net::SystemConfig::lassen(nodes));
  McrDlOptions mopts;
  mopts.coll.enabled = true;
  mopts.coll.overlap = overlap;
  McrDl mcr(&cluster, mopts);
  mcr.init(hier_engines({opts.flat_backend, algo}));
  const std::int64_t elems = static_cast<std::int64_t>(std::max<std::size_t>(1, bytes / 4));

  double elapsed_us = 0.0;
  SimTime start = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < opts.warmup; ++i) {
      api.all_reduce(algo, Tensor::phantom({elems}, DType::F32, dev));
    }
    api.synchronize();
    api.barrier(opts.flat_backend);
    if (rank == 0) start = cluster.scheduler().now();
    for (int i = 0; i < opts.iterations; ++i) {
      api.all_reduce(algo, Tensor::phantom({elems}, DType::F32, dev));
    }
    api.synchronize();
    api.barrier(opts.flat_backend);
    if (rank == 0) elapsed_us = (cluster.scheduler().now() - start) / opts.iterations;
  });
  return elapsed_us;
}

}  // namespace

BenchReport run_hier(const HierOptions& options) {
  HierOptions opts = options;
  if (opts.node_counts.empty()) opts.node_counts = {1, 2, 4};
  if (opts.sizes.empty()) {
    opts.sizes = {64u << 10, 256u << 10, 1u << 20, 4u << 20, 16u << 20, 64u << 20};
  }
  if (opts.model_worlds.empty()) opts.model_worlds = {8, 16};
  if (opts.quick) {
    opts.node_counts = {1, 2};
    opts.sizes = {256u << 10, 4u << 20, 16u << 20};
    opts.model_worlds = {8};
    opts.iterations = 1;
    opts.warmup = 0;
    opts.measured_steps = 1;
    opts.warmup_steps = 0;
  }
  const std::optional<coll::CompositeSpec> overlap_spec = coll::parse(opts.overlap_algo);
  MCRDL_REQUIRE(overlap_spec.has_value() && overlap_spec->algo == coll::CompositeAlgo::Hier,
                "HierOptions::overlap_algo must be a hier:<intra>+<inter> composite");

  BenchReport report;
  report.experiment = "hier";

  // Microbench sweep per node count: the flat incumbent, the same-runtime
  // composite (algorithm-only gain), and the mixed composite under the
  // overlap scheduler (algorithm + schedule).
  struct Variant {
    const char* tag;
    const std::string* algo;
    bool overlap;
  };
  const Variant variants[] = {{"flat", &opts.flat_backend, false},
                              {"hier", &opts.hier_algo, false},
                              {"hier+overlap", &opts.overlap_algo, true}};
  for (int nodes : opts.node_counts) {
    for (const Variant& v : variants) {
      BenchSeries series;
      series.name = std::string("all_reduce/") + v.tag + "/n" + std::to_string(nodes);
      series.backend = *v.algo;
      for (std::size_t bytes : opts.sizes) {
        BenchPoint p;
        p.world = nodes * 4;  // Lassen
        p.bytes = bytes;
        p.virtual_us = hier_allreduce_us(opts, *v.algo, nodes, bytes, v.overlap);
        series.points.push_back(p);
      }
      report.series.push_back(std::move(series));
    }
  }

  // Model sweep: 3D-CNN step time under the three plans. Both composite
  // variants run the identical mixed plan — the only delta between "hier"
  // and "hier+overlap" is the scheduler, so the model comparison isolates
  // what overlapping the levels is worth.
  struct PlanVariant {
    const char* tag;
    models::CommPlan plan;
    bool coll;
    bool overlap;
  };
  const PlanVariant plan_variants[] = {
      {"flat", models::CommPlan::pure(opts.flat_backend, "flat"), false, false},
      {"hier",
       models::CommPlan::hier_allreduce(opts.flat_backend, overlap_spec->intra,
                                        overlap_spec->inter, "hier"),
       true, false},
      {"hier+overlap",
       models::CommPlan::hier_allreduce(opts.flat_backend, overlap_spec->intra,
                                        overlap_spec->inter, "hier+overlap"),
       true, true}};

  std::vector<BenchSeries> model_series(3);
  for (std::size_t i = 0; i < 3; ++i) {
    model_series[i].name = std::string("cnn3d/") + plan_variants[i].tag;
    model_series[i].backend = plan_variants[i].coll ? opts.overlap_algo : opts.flat_backend;
  }
  for (int world : opts.model_worlds) {
    MCRDL_REQUIRE(world % 4 == 0, "hier model sweep runs on Lassen (4 GPUs per node)");
    net::SystemConfig sys = net::SystemConfig::lassen(world / 4);
    models::TrainingHarness harness(sys);
    models::Cnn3dModel model(models::Cnn3dConfig{}, sys);
    for (std::size_t i = 0; i < 3; ++i) {
      models::HarnessOptions hopts;
      hopts.warmup_steps = opts.warmup_steps;
      hopts.measured_steps = opts.measured_steps;
      hopts.mcr_options.coll.enabled = plan_variants[i].coll;
      hopts.mcr_options.coll.overlap = plan_variants[i].overlap;
      const models::RunResult result =
          harness.run(model, plan_variants[i].plan, models::FrameworkModel::raw(), hopts);
      BenchPoint p;
      p.world = world;
      p.bytes = 0;  // whole-step measurement
      p.virtual_us = result.step_time_us;
      p.items_per_s = result.throughput;
      model_series[i].points.push_back(p);
    }
  }
  for (auto& s : model_series) report.series.push_back(std::move(s));
  return report;
}

const std::vector<Experiment>& experiment_registry() {
  // The paper's figures and tables run their fixed grid and ignore --quick.
  const auto fixed = [](BenchReport (*run)()) {
    return [run](const ExperimentOptions&) { return run(); };
  };
  static const std::vector<Experiment> registry = {
      {"fig1", "compute vs comm split and per-op comm breakdown (paper Figure 1)",
       fixed(&run_fig1)},
      {"fig2", "collective microbenchmark across backends (paper Figure 2)",
       [](const ExperimentOptions& o) {
         Fig2Options options;
         options.quick = o.quick;
         return run_fig2(options);
       }},
      {"fig7", "framework overhead over OMB, MV2-GDR Alltoall (paper Figure 7)",
       fixed(&run_fig7)},
      {"fig8", "DS-MoE scaling across communication plans (paper Figure 8)",
       [](const ExperimentOptions& o) {
         ScalingOptions options;
         options.quick = o.quick;
         return run_fig8(options);
       }},
      {"fig9", "DLRM scaling across communication plans (paper Figure 9)",
       [](const ExperimentOptions& o) {
         ScalingOptions options;
         options.quick = o.quick;
         return run_fig9(options);
       }},
      {"fig10", "dense Megatron-DeepSpeed, MV2-GDR vs SCCL vs MCR-DL (paper Figure 10)",
       fixed(&run_fig10)},
      {"fig11", "framework comparison on DS-MoE at 256 GPUs (paper Figure 11)",
       fixed(&run_fig11)},
      {"fig12", "communication-share reduction with MCR-DL (paper Figure 12)",
       fixed(&run_fig12)},
      {"table2", "all_gather tuning table at 64 GPUs (paper Table II)", fixed(&run_table2)},
      {"ablations", "sync, stream pool, fusion, compression and table-transfer ablations",
       fixed(&run_ablations)},
      {"adapt", "online tuner rerouting around a mid-run degrade (DESIGN.md §9)",
       [](const ExperimentOptions& o) {
         AdaptOptions options;
         options.quick = o.quick;
         return run_adapt(options).bench;
       }},
      {"serve", "multi-tenant trace replay, clean vs chaos latency (DESIGN.md §10)",
       [](const ExperimentOptions& o) {
         ServeExperimentOptions options;
         options.quick = o.quick;
         return run_serve(options).bench;
       }},
      {"resilience", "recovery latency and throughput, shrink-only vs grow-back (DESIGN.md §13)",
       [](const ExperimentOptions& o) {
         ResilienceOptions options;
         options.quick = o.quick;
         return run_resilience(options).bench;
       }},
      {"hotpath", "dispatch wall-clock throughput: fast path vs bucketed (DESIGN.md §14)",
       [](const ExperimentOptions& o) {
         HotpathOptions options;
         options.quick = o.quick;
         return run_hotpath(options);
       }},
      {"hier", "hierarchical composite allreduce vs flat, plus overlap (DESIGN.md §15)",
       [](const ExperimentOptions& o) {
         HierOptions options;
         options.quick = o.quick;
         return run_hier(options);
       }},
  };
  return registry;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& experiment : experiment_registry()) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

std::string experiment_names() {
  std::string names;
  for (const Experiment& experiment : experiment_registry()) {
    if (!names.empty()) names += "|";
    names += experiment.name;
  }
  return names;
}

}  // namespace mcrdl::bench
