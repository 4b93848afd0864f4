// The paper's remaining figures and tables (1, 7, 11, 12, Table II) and the
// design ablations, as registry experiments (bench/experiments.h). Each
// driver runs the paper's fixed grid; every number it reports is virtual
// time, so a full export is byte-identical run to run.
#include <iterator>
#include <utility>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/core/mcr_dl.h"
#include "src/models/dlrm.h"
#include "src/models/moe.h"
#include "src/models/resnet.h"
#include "src/models/workload.h"
#include "src/tune/tuning.h"

namespace mcrdl::bench {

namespace {

using models::CommPlan;
using models::FrameworkModel;
using models::HarnessOptions;
using models::RunResult;
using models::TrainingHarness;

BenchSeries single_point(const std::string& name, const std::string& backend, int world,
                         std::size_t bytes, double virtual_us, double items_per_s = 0.0) {
  return BenchSeries{name, backend, {BenchPoint{world, bytes, virtual_us, items_per_s}}};
}

// One training run as three series: "<name>/step" (step time, samples/s),
// "<name>/comm" and "<name>/compute" (rank 0's per-step busy time of each;
// comm / (comm + compute) is the communication share Figures 1 and 12 plot).
void add_run(BenchReport& report, const std::string& name, const std::string& backend,
             const RunResult& r) {
  report.series.push_back(
      single_point(name + "/step", backend, r.world, 0, r.step_time_us, r.throughput));
  report.series.push_back(single_point(name + "/comm", backend, r.world, 0, r.comm_time_us));
  report.series.push_back(
      single_point(name + "/compute", backend, r.world, 0, r.compute_time_us));
}

}  // namespace

// --- figure 1 ---------------------------------------------------------------

// ResNet-50 and DS-MoE on 64 Lassen V100s, DLRM on 32 ThetaGPU A100s, each
// under a monolithic NCCL framework as in the paper's profile. Per-op series
// "<model>/comm/<op>" carry Figure 1(b)'s breakdown of the comm time.
BenchReport run_fig1() {
  HarnessOptions opts;
  opts.warmup_steps = 1;
  opts.measured_steps = 3;
  BenchReport report;
  report.experiment = "fig1";
  const auto add = [&](const std::string& name, const net::SystemConfig& sys,
                       const models::Model& model) {
    const RunResult r =
        TrainingHarness(sys).run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), opts);
    add_run(report, name, "nccl", r);
    for (const auto& [op, us] : r.comm_by_op_us) {
      report.series.push_back(single_point(name + "/comm/" + op, "nccl", r.world, 0, us));
    }
  };
  {
    const net::SystemConfig sys = net::SystemConfig::lassen(16);  // 64 GPUs
    add("ResNet-50", sys, models::ResNet50Model(models::ResNet50Config{}, sys));
  }
  {
    const net::SystemConfig sys = net::SystemConfig::lassen(16);
    add("DS-MoE", sys, models::DSMoEModel(models::DSMoEConfig{}, sys));
  }
  {
    const net::SystemConfig sys = net::SystemConfig::theta_gpu(4);  // 32 GPUs
    add("DLRM", sys, models::DLRMModel(models::DLRMConfig{}, sys));
  }
  return report;
}

// --- figure 7 ---------------------------------------------------------------

namespace {

// Mean per-op Alltoall latency on MVAPICH2-GDR through one framework layer,
// 32 ThetaGPU A100s.
double fig7_alltoall_us(const FrameworkModel& fw, std::size_t bytes) {
  constexpr int kIters = 4;
  ClusterContext cluster(net::SystemConfig::theta_gpu(4));
  McrDl mcr(&cluster);
  const CommPlan plan = CommPlan::pure("mv2-gdr");
  mcr.init(plan.backends_needed(available_backend_names()));
  double result = 0.0;
  const std::int64_t numel =
      ((static_cast<std::int64_t>(bytes) / 4 + 31) / 32) * 32;  // divisible by world
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    models::CommIssuer comm(api, plan, fw);
    sim::Device* dev = cluster.device(rank);
    auto one = [&] {
      Tensor in = Tensor::phantom({numel}, DType::F32, dev);
      Tensor out = Tensor::phantom({numel}, DType::F32, dev);
      comm.all_to_all_single(std::move(out), std::move(in), /*async_op=*/false);
      api.synchronize();
    };
    one();  // warmup
    const SimTime start = cluster.scheduler().now();
    for (int i = 0; i < kIters; ++i) one();
    if (rank == 0) result = (cluster.scheduler().now() - start) / kIters;
  });
  return result;
}

}  // namespace

// Framework overhead over the raw OSU-style micro-benchmark: series "omb",
// "mcr_dl" and "pytorch_dist" sweep the message size; overhead is each
// framework's latency over omb's at the same size.
BenchReport run_fig7() {
  const std::vector<std::size_t> sizes = {512,       1u << 10,   4u << 10, 16u << 10, 64u << 10,
                                          256u << 10, 1u << 20, 4u << 20, 16u << 20};
  const std::pair<const char*, FrameworkModel> layers[] = {
      {"omb", FrameworkModel::raw()},
      {"mcr_dl", FrameworkModel::mcr_dl()},
      {"pytorch_dist", FrameworkModel::pytorch_distributed("mv2-gdr")}};
  BenchReport report;
  report.experiment = "fig7";
  for (const auto& layer : layers) report.series.push_back(BenchSeries{layer.first, "mv2-gdr", {}});
  for (std::size_t bytes : sizes) {
    for (std::size_t i = 0; i < std::size(layers); ++i) {
      report.series[i].points.push_back(
          BenchPoint{32, bytes, fig7_alltoall_us(layers[i].second, bytes), 0.0});
    }
  }
  return report;
}

// --- figure 11 --------------------------------------------------------------

// MCR-DL against the Table I frameworks on DS-MoE at 256 Lassen V100s, with
// tensor fusion on wherever the framework supports it.
BenchReport run_fig11() {
  const net::SystemConfig sys = net::SystemConfig::lassen(64);  // 256 GPUs
  TrainingHarness harness(sys);
  const models::DSMoEModel model(models::DSMoEConfig{}, sys);
  HarnessOptions opts;
  opts.warmup_steps = 1;
  opts.measured_steps = 2;
  opts.mcr_options.fusion.enabled = true;  // disabled per framework when unsupported

  const std::pair<FrameworkModel, CommPlan> entries[] = {
      {FrameworkModel::mcr_dl(), CommPlan::mcr_dl_mixed()},
      {FrameworkModel::horovod(), CommPlan::pure("nccl")},
      {FrameworkModel::pytorch_distributed("nccl"), CommPlan::pure("nccl")},
      {FrameworkModel::mpi4py(), CommPlan::pure("mv2-gdr")},
  };
  BenchReport report;
  report.experiment = "fig11";
  for (const auto& [framework, plan] : entries) {
    add_run(report, framework.name, plan_backend_label(plan),
            harness.run(model, plan, framework, opts));
  }
  return report;
}

// --- figure 12 --------------------------------------------------------------

// Communication share under the best single backend (NCCL) vs MCR-DL's mixed
// plan: DS-MoE at 256 Lassen V100s, DLRM at 32 ThetaGPU A100s.
BenchReport run_fig12() {
  BenchReport report;
  report.experiment = "fig12";
  HarnessOptions opts;
  const auto add_pair = [&](const std::string& model_name, const net::SystemConfig& sys,
                            const models::Model& model) {
    TrainingHarness harness(sys);
    add_run(report, model_name + "/Baseline NCCL", "nccl",
            harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), opts));
    const CommPlan mixed = CommPlan::mcr_dl_mixed();
    add_run(report, model_name + "/MCR-DL", plan_backend_label(mixed),
            harness.run(model, mixed, FrameworkModel::raw(), opts));
  };
  {
    const net::SystemConfig sys = net::SystemConfig::lassen(64);  // 256 GPUs
    opts.warmup_steps = 1;
    opts.measured_steps = 2;
    add_pair("DS-MoE", sys, models::DSMoEModel(models::DSMoEConfig{}, sys));
  }
  {
    const net::SystemConfig sys = net::SystemConfig::theta_gpu(4);  // 32 GPUs
    opts.warmup_steps = 2;
    opts.measured_steps = 6;
    add_pair("DLRM", sys, models::DLRMModel(models::DLRMConfig{}, sys));
  }
  return report;
}

// --- table II ---------------------------------------------------------------

// The tuning suite's all_gather table at 64 Lassen GPUs: one series per row,
// "all_gather/<max_bytes>", whose `backend` is the row's winner and whose
// point carries the winner's measured latency at that size.
BenchReport run_table2() {
  constexpr int kWorld = 64;
  TuningSuite suite(net::SystemConfig::lassen(kWorld / 4));
  TuningConfig cfg;
  cfg.ops = {OpType::AllGather};
  cfg.sizes = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
  cfg.world_sizes = {kWorld};
  cfg.iterations = 2;
  cfg.warmup = 1;
  const TuningTable table = suite.generate(cfg);

  BenchReport report;
  report.experiment = "table2";
  for (const auto& entry : table.entries(OpType::AllGather, kWorld)) {
    report.series.push_back(single_point(
        "all_gather/" + std::to_string(entry.max_bytes), entry.backend, kWorld, entry.max_bytes,
        suite.measured(entry.backend, OpType::AllGather, kWorld, entry.max_bytes)));
  }
  return report;
}

// --- ablations --------------------------------------------------------------

namespace {

// sync: Listing-3 pattern, `ops` rounds of {async allreduce, independent
// compute, dependent compute} on 16 Lassen GPUs; `naive` host-synchronises
// right after each post (Fig 4a) instead of a stream-level wait (Fig 4b).
double sync_overlap_us(bool naive, int ops) {
  ClusterContext cluster(net::SystemConfig::lassen(4));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < ops; ++i) {
      Tensor x = Tensor::phantom({1 << 20}, DType::F32, dev);  // 4 MiB
      Work h = api.all_reduce("nccl", x, ReduceOp::Sum, /*async_op=*/true);
      if (naive) h->synchronize();
      dev->compute(300.0, "independent");
      h->wait();
      dev->compute(50.0, "dependent");
    }
    api.synchronize();
    dev->default_stream()->synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

// pool: `ops` concurrent small collectives; use_pool=false serialises them
// as a single comm stream would, by waiting on each before the next post.
double pool_us(bool use_pool, int ops, std::size_t bytes) {
  ClusterContext cluster(net::SystemConfig::lassen(4));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    std::vector<Work> works;
    for (int i = 0; i < ops; ++i) {
      Tensor x = Tensor::phantom({static_cast<std::int64_t>(bytes / 4)}, DType::F32, dev);
      if (!use_pool && !works.empty()) works.back()->synchronize();
      works.push_back(api.all_reduce("nccl", x, ReduceOp::Sum, true));
    }
    for (auto& w : works) w->synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

// fusion: a DDP-like loop of `tensors` small gradient allreduces per rank,
// one every 2 us of host time. The gradient producer must advance host time
// (a stream kernel would not): a flush timeout T only fires while the host
// is still producing, before synchronize() flushes everything at once.
// `two_backends` alternates NCCL and MVAPICH2-GDR (the cross-backend
// overlap study); otherwise everything goes to NCCL, whose per-op launch
// overhead serialises on the comm streams — the cost fusion amortises.
double fusion_us(const FusionConfig& cfg, bool two_backends = false) {
  constexpr int kTensors = 64;
  constexpr std::size_t kBytes = 16 << 10;  // 16 KiB gradients
  ClusterContext cluster(net::SystemConfig::lassen(4));
  McrDlOptions opts;
  opts.fusion = cfg;
  McrDl mcr(&cluster, opts);
  mcr.init(two_backends ? std::vector<std::string>{"nccl", "mv2-gdr"}
                        : std::vector<std::string>{"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < kTensors; ++i) {
      Tensor g = Tensor::phantom({static_cast<std::int64_t>(kBytes / 4)}, DType::F32, dev);
      api.all_reduce(two_backends && i % 2 == 1 ? "mv2-gdr" : "nccl", g, ReduceOp::Sum,
                     /*async_op=*/true);
      cluster.scheduler().sleep_for(2.0);  // the grad producer
    }
    api.synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

FusionConfig fusion_config(std::size_t buffer_bytes, double timeout_us) {
  FusionConfig cfg;
  cfg.enabled = true;
  cfg.buffer_bytes = buffer_bytes;
  cfg.flush_timeout_us = timeout_us;
  cfg.max_tensor_bytes = 64 << 10;
  return cfg;
}

// compression: the zfp-style codec at `bits` per value (0 = off) on a
// broadcast of a materialised payload plus a bandwidth-bound phantom
// all_gather, 16 Lassen GPUs.
double compression_us(int bits) {
  CompressionConfig ccfg;
  ccfg.enabled = bits > 0;
  if (ccfg.enabled) ccfg.codec.bits_per_value = bits;
  ccfg.min_bytes = 0;
  McrDlOptions opts;
  opts.compression = ccfg;
  ClusterContext cluster(net::SystemConfig::lassen(4));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    Rng rng(7);
    Tensor reference = Tensor::random_uniform({16384}, DType::F32, dev, rng, -1.0, 1.0);
    Tensor payload = rank == 0 ? reference.clone() : Tensor::zeros({16384}, DType::F32, dev);
    for (int i = 0; i < 4; ++i) {
      api.broadcast("nccl", payload, 0);
      Tensor in = Tensor::phantom({1 << 20}, DType::F32, dev);
      Tensor gathered = Tensor::phantom({16 << 20}, DType::F32, dev);
      api.all_gather("nccl", gathered, in);
      api.synchronize();
    }
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

}  // namespace

// The design ablations of DESIGN.md §3, one prefix each:
//   sync/         naive host sync vs fine-grained events, 8 rounds
//   pool/         serialised vs pooled comm streams over message size
//   fusion/       fusion off, buffer size B sweep, flush timeout T_<us>, and
//                 the cross-backend overlap flush off/on
//   compression/  codec off vs bits_<n> per value
//   transfer/     the tuning-table winner per <system>/<op>/<bytes> on
//                 Lassen and ThetaGPU at 32 GPUs (the `backend` field), with
//                 the winner's measured latency
// Every run is 16 Lassen GPUs unless its world says otherwise.
BenchReport run_ablations() {
  BenchReport report;
  report.experiment = "ablations";

  report.series.push_back(single_point("sync/naive", "nccl", 16, 0, sync_overlap_us(true, 8)));
  report.series.push_back(single_point("sync/events", "nccl", 16, 0, sync_overlap_us(false, 8)));

  BenchSeries serialised{"pool/serialised", "nccl", {}};
  BenchSeries pooled{"pool/pooled", "nccl", {}};
  for (std::size_t bytes : {4u << 10, 64u << 10, 4u << 20}) {
    serialised.points.push_back(BenchPoint{16, bytes, pool_us(false, 8, bytes), 0.0});
    pooled.points.push_back(BenchPoint{16, bytes, pool_us(true, 8, bytes), 0.0});
  }
  report.series.push_back(std::move(serialised));
  report.series.push_back(std::move(pooled));

  report.series.push_back(single_point("fusion/off", "nccl", 16, 0, fusion_us(FusionConfig{})));
  BenchSeries buffer{"fusion/B", "nccl", {}};
  for (std::size_t b : {64u << 10, 256u << 10, 1u << 20, 4u << 20}) {
    buffer.points.push_back(BenchPoint{16, b, fusion_us(fusion_config(b, 100.0)), 0.0});
  }
  report.series.push_back(std::move(buffer));
  for (int t : {10, 50, 200, 1000}) {
    report.series.push_back(single_point("fusion/T_" + std::to_string(t), "nccl", 16, 0,
                                         fusion_us(fusion_config(1 << 20, t))));
  }
  for (bool overlap : {false, true}) {
    FusionConfig cfg = fusion_config(1 << 20, 50.0);
    cfg.cross_backend_overlap = overlap;
    report.series.push_back(single_point(overlap ? "fusion/overlap_on" : "fusion/overlap_off",
                                         "mixed", 16, 0, fusion_us(cfg, /*two_backends=*/true)));
  }

  report.series.push_back(single_point("compression/off", "nccl", 16, 0, compression_us(0)));
  for (int bits : {6, 8, 12, 16, 20}) {
    report.series.push_back(single_point("compression/bits_" + std::to_string(bits), "nccl", 16,
                                         0, compression_us(bits)));
  }

  constexpr int kWorld = 32;
  const std::pair<const char*, net::SystemConfig> systems[] = {
      {"lassen", net::SystemConfig::lassen(8)}, {"theta_gpu", net::SystemConfig::theta_gpu(4)}};
  for (const auto& [system_name, sys] : systems) {
    TuningSuite suite(sys);
    TuningConfig cfg;
    cfg.backends = {"mv2-gdr", "nccl", "sccl"};
    cfg.ops = {OpType::AllReduce, OpType::AllGather, OpType::AllToAllSingle};
    cfg.sizes = {1u << 10, 16u << 10, 256u << 10, 4u << 20};
    cfg.world_sizes = {kWorld};
    cfg.iterations = 1;
    const TuningTable table = suite.generate(cfg);
    for (OpType op : cfg.ops) {
      for (std::size_t bytes : cfg.sizes) {
        const std::string& winner = table.lookup(op, kWorld, bytes);
        report.series.push_back(single_point(
            std::string("transfer/") + system_name + "/" + op_name(op) + "/" +
                std::to_string(bytes),
            winner, kWorld, bytes, suite.measured(winner, op, kWorld, bytes)));
      }
    }
  }
  return report;
}

}  // namespace mcrdl::bench
