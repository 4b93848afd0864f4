// Drivers for every paper experiment plus the stable BENCH_*.json export
// schema. Each driver returns a BenchReport; the registry at the bottom
// names them, and `bench_export --experiment <name>` runs one and writes its
// report as BENCH_<name>.json (tools/ci.sh compares fresh exports against
// the committed files byte for byte).
//
// Schema (mcrdl-bench-v1):
//   {"schema":"mcrdl-bench-v1","experiment":"fig2",
//    "series":[{"name":"all_reduce/nccl","backend":"nccl",
//               "points":[{"world":64,"bytes":1024,"virtual_us":12.3,
//                          "items_per_s":0.0},...]},...]}
// Microbench sweeps vary `bytes` (monotonically increasing within a
// series); model-scaling sweeps vary `world` and report bytes=0 with
// throughput in items_per_s. `virtual_us` always holds a virtual time and
// `items_per_s` a throughput or 0; where an experiment picks a winner
// (Table II, the transfer ablation) the series' `backend` names it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fault/failover.h"
#include "src/models/comm_plan.h"
#include "src/sched/serve.h"

namespace mcrdl::bench {

inline constexpr const char* kBenchSchema = "mcrdl-bench-v1";

struct BenchPoint {
  int world = 0;
  std::size_t bytes = 0;        // 0 for model sweeps (whole-step timing)
  double virtual_us = 0.0;      // per-op latency or per-step time
  double items_per_s = 0.0;     // throughput where the experiment has one
};

struct BenchSeries {
  std::string name;             // "all_reduce/nccl", "MCR-DL-T", ...
  std::string backend;          // backend or plan routing ("mixed", "auto")
  std::vector<BenchPoint> points;
};

struct BenchReport {
  std::string experiment;       // "fig2", "fig8", "fig9"
  std::vector<BenchSeries> series;

  const BenchSeries* find(const std::string& name) const;
  // The point for `world` in `name`; throws InvalidArgument when absent.
  const BenchPoint& at(const std::string& name, int world) const;
};

// Serialises a report in the mcrdl-bench-v1 schema (strictly valid JSON).
std::string to_bench_json(const BenchReport& report);

// --- experiment drivers -----------------------------------------------------

// The label recorded in a plan's series `backend` field: the concrete name
// for pure plans, "mixed" for coarse-grained plans, "auto" for the tuned plan.
std::string plan_backend_label(const models::CommPlan& plan);

// Figure 2: collective microbenchmark across backends on 64 Lassen GPUs.
struct Fig2Options {
  std::vector<std::size_t> sizes;       // empty = the paper's 1KB..64MB grid
  std::vector<std::string> backends;    // empty = all four backends
  int world = 64;
  int iterations = 2;
  int warmup = 1;
  bool quick = false;                   // trim the grid for CI smoke runs
};
BenchReport run_fig2(const Fig2Options& options = {});

// Figures 8/9: end-to-end model scaling sweeps (DS-MoE on Lassen, DLRM on
// ThetaGPU) across the four communication plans.
struct ScalingOptions {
  std::vector<int> scales;              // empty = the figure's GPU counts
  int warmup_steps = -1;                // -1 = the figure's defaults
  int measured_steps = -1;
  bool quick = false;                   // fewest scales/steps for CI
};
BenchReport run_fig8(const ScalingOptions& options = {});
BenchReport run_fig9(const ScalingOptions& options = {});
// Figure 10: dense Megatron-DeepSpeed on ThetaGPU, pure MV2-GDR vs pure SCCL
// vs MCR-DL tuned across the two, at 8/16/32 GPUs.
BenchReport run_fig10();

// The remaining paper experiments (bench/paper.cc). Each runs the paper's
// fixed grid, so none takes options.
BenchReport run_fig1();       // compute/comm split + per-op comm breakdown
BenchReport run_fig7();       // framework overhead over OMB, Alltoall sweep
BenchReport run_fig11();      // framework comparison, DS-MoE at 256 GPUs
BenchReport run_fig12();      // comm-share reduction, DS-MoE and DLRM
BenchReport run_table2();     // the all_gather tuning table at 64 GPUs
BenchReport run_ablations();  // sync/, pool/, fusion/, compression/, transfer/

// Online-adaptation experiment (DESIGN.md §9): a fixed-size all_reduce loop
// dispatched on "auto" while the statically-best backend's links degrade
// mid-run. Three series show the contrast:
//
//   "static"   — static-table resolution only; throughput never recovers
//   "online"   — the online tuner quarantines the degraded backend and
//                re-routes; throughput recovers to the best alternative
//   "alt-best" — the best undegraded backend, run clean, as the target line
//
// Unlike the other experiments the sweep axis is *time*: each point is one
// window of `window` steps, `bytes` holds the window's first step index and
// `virtual_us` the window's mean step time (items_per_s = steps/second).
struct AdaptOptions {
  int world = 8;                   // Lassen, world/4 nodes
  std::size_t bytes = 256u << 10;  // all_reduce payload
  int steps = 240;                 // loop length per series
  int window = 20;                 // steps per reported point
  double degrade_factor = 8.0;     // beta multiplier injected on the winner
  std::uint64_t seed = 42;         // online-tuner seed
  bool quick = false;              // trim for CI smoke runs
};

struct AdaptReport {
  BenchReport bench;
  std::string degraded_backend;    // statically-best backend (the casualty)
  std::string adapted_backend;     // best undegraded alternative
  std::uint64_t switches = 0;      // online-tuner incumbent switches
  std::uint64_t quarantines = 0;   // drift quarantines
  double degrade_from_us = 0.0;    // virtual instant the degrade starts
  double online_post_us = 0.0;     // median step time, last window, online
  double static_post_us = 0.0;     // same for the static-table run
  double alt_best_us = 0.0;        // same for the clean alternative run
  std::string learned_table;       // tuner's learned table (text format)
};
AdaptReport run_adapt(const AdaptOptions& options = {});

// Multi-tenant serving experiment (DESIGN.md §10): replay a seeded arrival
// trace through the ServeScheduler twice — once clean, once with a chaos
// window degrading the shared fabric mid-trace — and report job-latency
// percentiles. The sweep axis is the *percentile rank*: each series carries
// points at p50/p90/p99 (`bytes` holds the rank so the generic
// increasing-bytes schema check applies), `virtual_us` the latency, and
// `items_per_s` the run's completed-jobs-per-second. Series cover the
// aggregate plus each QoS class, for the clean and chaos runs.
struct ServeExperimentOptions {
  int nodes = 16;                  // Lassen nodes shared by all tenants
  int jobs = 1000;                 // trace length
  std::uint64_t seed = 7;          // arrival-trace seed
  double chaos_degrade = 8.0;      // fabric slowdown inside the window
  bool quick = false;              // smaller trace/world for CI smoke runs
};

struct ServeBenchReport {
  BenchReport bench;
  sched::ServeResult clean;
  sched::ServeResult chaos;
};
ServeBenchReport run_serve(const ServeExperimentOptions& options = {});

// Resilience experiment (DESIGN.md §13): a fixed-size allreduce loop that
// loses one rank mid-run, compared shrink-only vs shrink-then-rejoin. Both
// runs share the same two-phase shape — phase one absorbs the loss (the
// survivors shrink and finish), every rank then parks until just past the
// rejoin instant, and phase two runs over whatever world is alive: the
// shrunk survivors in the shrink-only run, the restored full world in the
// rejoin run. Series "steps/shrink" and "steps/rejoin" carry rank 0's
// per-step times (`bytes` is the step index); "recovery/shrink" and
// "recovery/rejoin" carry one point each with `world` the post-recovery
// alive count, `virtual_us` the recovery latency (loss/rejoin instant to
// the first collective completed afterwards) and `items_per_s` the
// post-recovery throughput in rank-steps/s — the number grow-back restores.
struct ResilienceOptions {
  int world = 8;                   // Lassen, world/4 nodes
  std::size_t bytes = 1u << 20;    // all_reduce payload
  int steps = 12;                  // per phase
  int lost_rank = 1;               // the casualty (and rejoiner)
  double interval_us = 200.0;      // virtual gap between steps
  bool quick = false;              // trim for CI smoke runs
};

struct ResilienceBenchReport {
  BenchReport bench;
  double loss_at_us = 0.0;             // the shared loss instant
  double rejoin_at_us = 0.0;           // the rejoin instant (rejoin run only)
  double shrink_recovery_us = 0.0;     // loss -> first completed collective
  double rejoin_recovery_us = 0.0;     // rejoin -> first completed collective
  double shrink_post_rank_steps_per_s = 0.0;  // alive x steps/s after recovery
  double rejoin_post_rank_steps_per_s = 0.0;
  fault::ResilienceReport shrink_report;
  fault::ResilienceReport rejoin_report;
};
ResilienceBenchReport run_resilience(const ResilienceOptions& options = {});

// Hot-path dispatch experiment (DESIGN.md §14): wall-clock throughput of a
// small-allreduce loop on the same workload with and without bucketing —
//
//   "dispatch/fast"     — arena OpCalls + precompiled stage plans
//   "dispatch/bucketed" — the same dispatch with gradient bucketing
//                         coalescing the small collectives into fused issues
//
// Unlike the figures, the quantity of interest is wall clock: each point is one
// message size (`bytes`), `virtual_us` the run's final virtual instant and
// `items_per_s` the host-clock dispatch throughput in ops/s across all
// ranks. Bucketing changes the schedule, so its virtual time differs. A
// final "speedup" series reports, per size, the bucketed/fast throughput
// ratio.
struct HotpathOptions {
  int world = 8;                        // Lassen, world/4 nodes
  std::vector<std::size_t> sizes;       // empty = {256, 1024, 4096}
  int ops_per_rank = 4096;              // dispatches per rank per run
  int sync_every = 64;                  // drain the stream every N ops
  bool quick = false;                   // trim for CI smoke runs
};
BenchReport run_hotpath(const HotpathOptions& options = {});

// Composite-collective experiment (DESIGN.md §15): where does a two-level
// hierarchical allreduce beat the flat single-backend choice, and what does
// the overlap scheduler add on top? Two sweeps in one report:
//
//   * microbench — for each node count n, series "all_reduce/flat/n<n>",
//     "all_reduce/hier/n<n>" and "all_reduce/hier+overlap/n<n>" sweep the
//     message grid (strictly increasing `bytes`), measuring one synchronous
//     allreduce per point in virtual time. Flat wins small messages (one
//     launch vs three); `hier_algo` (same runtime at both levels) wins large
//     messages at n >= 2 — the NIC hop carries 1/gpus_per_node of the
//     traffic, rail-striped by the leaders. At n == 1 the composite
//     degenerates to reduce+broadcast and loses everywhere — kept in the
//     export as the honest baseline.
//
//   * model — series "cnn3d/flat", "cnn3d/hier" and "cnn3d/hier+overlap"
//     carry the 3D-CNN step time per world size (`bytes` = 0). Both
//     composite variants run the *same* `overlap_algo` plan so the only
//     delta is the scheduler: without overlap the host-MPI inter hop is
//     pure added tax and the plan loses to flat; with overlap the chunks of
//     independent gradient buckets interleave the NVLink and NIC levels and
//     the plan wins outright — the paper-style "algorithm *and* schedule"
//     crossover.
//
// Why two composite strings: a single-runtime composite ("hier:nccl+nccl")
// issues both levels on the same device stream, which orders them — it can
// improve the *algorithm* but the overlap scheduler cannot interleave its
// phases. Pairing a stream runtime intra-node with a host-progressed MPI
// runtime inter-node ("hier:nccl+mv2-gdr") is what makes the levels truly
// concurrent — the mix-and-match thesis in one experiment.
struct HierOptions {
  std::vector<int> node_counts;         // empty = {1, 2, 4}
  std::vector<std::size_t> sizes;       // empty = 64KiB..64MiB grid
  std::string flat_backend = "nccl";    // the single-backend incumbent
  std::string hier_algo = "hier:nccl+nccl";           // algorithm-only gain
  std::string overlap_algo = "hier:nccl+mv2-gdr";     // mixed, overlappable
  std::vector<int> model_worlds;        // empty = {8, 16}
  int iterations = 2;
  int warmup = 1;
  int measured_steps = 3;
  int warmup_steps = 1;
  bool quick = false;                   // trim grids for CI smoke runs
};
BenchReport run_hier(const HierOptions& options = {});

// --- experiment registry ----------------------------------------------------
//
// Name -> runner table shared by bench_export (and anything else that runs
// experiments by name); adding an experiment here is all it takes to make
// `bench_export --experiment <name>` and `--list` know about it.
struct ExperimentOptions {
  bool quick = false;  // trim the sweep for CI smoke runs (paper grids ignore it)
};

struct Experiment {
  std::string name;
  std::string description;  // one line for --list
  std::function<BenchReport(const ExperimentOptions&)> run;
};

// Registered experiments in a stable order: the paper's (fig1, fig2, fig7,
// fig8, fig9, fig10, fig11, fig12, table2, ablations), then adapt, serve,
// resilience, hotpath, hier.
const std::vector<Experiment>& experiment_registry();
// The registry entry for `name`, or nullptr when unknown.
const Experiment* find_experiment(const std::string& name);
// "fig2|fig8|..." — the registry's names joined for usage strings.
std::string experiment_names();

}  // namespace mcrdl::bench
