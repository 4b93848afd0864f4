// Workload-model tests: every model runs end to end through the harness and
// reproduces the paper's qualitative behaviour at reduced scale — comm/compute
// splits (Fig 1), the mixed-backend advantage (Figs 8-10), overlap, and the
// framework adapters (Figs 7/11).
#include <gtest/gtest.h>

#include "src/models/cnn3d.h"
#include "src/models/dlrm.h"
#include "src/models/megatron.h"
#include "src/models/moe.h"
#include "src/models/resnet.h"

namespace mcrdl::models {
namespace {

HarnessOptions quick() {
  HarnessOptions o;
  o.warmup_steps = 1;
  o.measured_steps = 2;
  return o;
}

TEST(CommPlanTest, BackendRouting) {
  CommPlan mixed = CommPlan::mcr_dl_mixed();
  EXPECT_EQ(mixed.backend_for(OpType::AllReduce), "nccl");
  EXPECT_EQ(mixed.backend_for(OpType::AllToAllSingle), "mv2-gdr");
  CommPlan pure = CommPlan::pure("sccl");
  EXPECT_EQ(pure.backend_for(OpType::AllToAllSingle), "sccl");
  CommPlan tuned = CommPlan::mcr_dl_tuned();
  EXPECT_EQ(tuned.backend_for(OpType::AllReduce), "auto");
}

TEST(CommPlanTest, BackendsNeeded) {
  CommPlan mixed = CommPlan::mcr_dl_mixed();
  auto needed = mixed.backends_needed(available_backend_names());
  EXPECT_EQ(needed.size(), 2u);
  CommPlan tuned = CommPlan::mcr_dl_tuned();
  EXPECT_EQ(tuned.backends_needed(available_backend_names()).size(), 4u);
}

TEST(FrameworkModelTest, Presets) {
  EXPECT_TRUE(FrameworkModel::mcr_dl().supports_mixed);
  EXPECT_TRUE(FrameworkModel::mcr_dl().supports_fusion);
  EXPECT_FALSE(FrameworkModel::pytorch_distributed("nccl").supports_mixed);
  EXPECT_TRUE(FrameworkModel::mpi4py().host_staging);
  EXPECT_FALSE(FrameworkModel::mpi4py().supports_fusion);
  EXPECT_LT(FrameworkModel::mcr_dl().per_call_overhead_us,
            FrameworkModel::pytorch_distributed("nccl").per_call_overhead_us);
}

TEST(ModelTest, ResNetRunsAndIsComputeDominated) {
  net::SystemConfig sys = net::SystemConfig::lassen(4);  // 16 GPUs
  TrainingHarness harness(sys);
  ResNet50Model model(ResNet50Config{}, sys);
  RunResult r = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.step_time_us, 0.0);
  EXPECT_GT(r.compute_time_us, 0.0);
  // Paper Fig 1: data-parallel ResNet-50 is strongly compute-dominated.
  EXPECT_LT(r.comm_fraction(), 0.45);
  // Its communication is essentially all Allreduce.
  double ar = r.comm_by_op_us.count("all_reduce") ? r.comm_by_op_us.at("all_reduce") : 0.0;
  double total = 0.0;
  for (auto& [op, t] : r.comm_by_op_us) total += t;
  EXPECT_GT(ar / total, 0.95);
}

TEST(ModelTest, DSMoEHasHeterogeneousCommunication) {
  net::SystemConfig sys = net::SystemConfig::lassen(4);  // 16 GPUs
  TrainingHarness harness(sys);
  DSMoEModel model(DSMoEConfig{}, sys);
  RunResult r = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  EXPECT_GT(r.throughput, 0.0);
  // Both Allreduce and Alltoall must be material (paper Fig 1b).
  EXPECT_GT(r.comm_by_op_us.at("all_reduce"), 0.0);
  EXPECT_GT(r.comm_by_op_us.at("all_to_all_single"), 0.0);
}

TEST(ModelTest, DSMoECommFractionExceedsResNet) {
  net::SystemConfig sys = net::SystemConfig::lassen(4);
  TrainingHarness harness(sys);
  ResNet50Model resnet(ResNet50Config{}, sys);
  DSMoEModel moe(DSMoEConfig{}, sys);
  RunResult rr = harness.run(resnet, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  RunResult rm = harness.run(moe, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  EXPECT_GT(rm.comm_fraction(), rr.comm_fraction());
}

TEST(ModelTest, MixedPlanBeatsPurePlansForMoEAtScale) {
  net::SystemConfig sys = net::SystemConfig::lassen(16);  // 64 GPUs
  TrainingHarness harness(sys);
  DSMoEModel model(DSMoEConfig{}, sys);
  RunResult nccl = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  RunResult mv2 = harness.run(model, CommPlan::pure("mv2-gdr"), FrameworkModel::raw(), quick());
  RunResult mixed = harness.run(model, CommPlan::mcr_dl_mixed(), FrameworkModel::raw(), quick());
  EXPECT_GT(mixed.throughput, nccl.throughput);
  EXPECT_GT(mixed.throughput, mv2.throughput);
}

TEST(ModelTest, DLRMRunsWithNonBlockingOverlap) {
  net::SystemConfig sys = net::SystemConfig::theta_gpu(2);  // 16 GPUs
  TrainingHarness harness(sys);
  DLRMModel model(DLRMConfig{}, sys);
  RunResult r = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  EXPECT_GT(r.throughput, 0.0);
  // DLRM is communication-heavy (paper Fig 1).
  EXPECT_GT(r.comm_fraction(), 0.3);
  EXPECT_GT(r.comm_by_op_us.at("all_to_all_single"), 0.0);
}

TEST(ModelTest, DLRMMixedBeatsPureAtScale) {
  net::SystemConfig sys = net::SystemConfig::theta_gpu(4);  // 32 GPUs
  TrainingHarness harness(sys);
  DLRMModel model(DLRMConfig{}, sys);
  RunResult nccl = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  RunResult mv2 = harness.run(model, CommPlan::pure("mv2-gdr"), FrameworkModel::raw(), quick());
  RunResult mixed = harness.run(model, CommPlan::mcr_dl_mixed(), FrameworkModel::raw(), quick());
  EXPECT_GT(mixed.throughput, nccl.throughput * 0.999);
  EXPECT_GT(mixed.throughput, mv2.throughput * 0.999);
}

TEST(ModelTest, MegatronRunsWithTpAndZero) {
  net::SystemConfig sys = net::SystemConfig::theta_gpu(2);  // 16 GPUs
  TrainingHarness harness(sys);
  MegatronConfig cfg;
  cfg.layers = 8;  // reduced depth for test speed
  MegatronDenseModel model(cfg, sys);
  RunResult r = harness.run(model, CommPlan::pure("sccl"), FrameworkModel::raw(), quick());
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.comm_by_op_us.at("all_reduce"), 0.0);
  EXPECT_GT(r.comm_by_op_us.at("reduce_scatter"), 0.0);
  EXPECT_GT(r.comm_by_op_us.at("all_gather"), 0.0);
}

TEST(ModelTest, ThroughputScalesWithWorldSize) {
  // Weak scaling for DS-MoE: more GPUs -> more global throughput, but below
  // linear (communication grows with scale).
  DSMoEConfig cfg;
  cfg.layers = 8;
  net::SystemConfig small_sys = net::SystemConfig::lassen(2);
  net::SystemConfig big_sys = net::SystemConfig::lassen(8);
  RunResult small = TrainingHarness(small_sys).run(DSMoEModel(cfg, small_sys),
                                                   CommPlan::pure("nccl"),
                                                   FrameworkModel::raw(), quick());
  RunResult big = TrainingHarness(big_sys).run(DSMoEModel(cfg, big_sys), CommPlan::pure("nccl"),
                                               FrameworkModel::raw(), quick());
  EXPECT_GT(big.throughput, small.throughput);
  EXPECT_LT(big.throughput, 4.0 * small.throughput);
  const double eff = scaling_efficiency(big, small);
  EXPECT_GT(eff, 0.3);
  EXPECT_LT(eff, 1.001);
}

TEST(ModelTest, FrameworkOverheadsOrderStepTimes) {
  // Same model, same plan: heavier framework layers => slower steps.
  net::SystemConfig sys = net::SystemConfig::lassen(2);
  TrainingHarness harness(sys);
  DSMoEConfig cfg;
  cfg.layers = 8;
  DSMoEModel model(cfg, sys);
  CommPlan plan = CommPlan::pure("mv2-gdr");
  RunResult raw = harness.run(model, plan, FrameworkModel::raw(), quick());
  RunResult mcr = harness.run(model, plan, FrameworkModel::mcr_dl(), quick());
  RunResult pytd = harness.run(model, plan, FrameworkModel::pytorch_distributed("mv2-gdr"),
                               quick());
  RunResult m4p = harness.run(model, plan, FrameworkModel::mpi4py(), quick());
  EXPECT_LT(raw.step_time_us, mcr.step_time_us);
  EXPECT_LT(mcr.step_time_us, pytd.step_time_us);
  EXPECT_LT(pytd.step_time_us, m4p.step_time_us);  // host staging is worst
}

TEST(ModelTest, TunedPlanMatchesOrBeatsMixedPlan) {
  net::SystemConfig sys = net::SystemConfig::lassen(4);  // 16 GPUs
  // Tune a small grid for the ops DS-MoE uses.
  TuningSuite suite(sys);
  TuningConfig tcfg;
  tcfg.backends = {"nccl", "mv2-gdr"};
  tcfg.ops = {OpType::AllReduce, OpType::AllToAllSingle};
  tcfg.sizes = {64u << 10, 1u << 20, 8u << 20, 32u << 20};
  tcfg.world_sizes = {16};
  tcfg.iterations = 1;
  TuningTable table = suite.generate(tcfg);

  TrainingHarness harness(sys);
  DSMoEConfig cfg;
  cfg.layers = 8;
  DSMoEModel model(cfg, sys);
  RunResult mixed = harness.run(model, CommPlan::mcr_dl_mixed(), FrameworkModel::raw(), quick());
  RunResult tuned = harness.run(model, CommPlan::mcr_dl_tuned(), FrameworkModel::raw(), quick(),
                                &table);
  // Fine-grained per-size selection should not lose to the coarse mix.
  EXPECT_GE(tuned.throughput, mixed.throughput * 0.97);
}


TEST(ModelTest, ExpertParallelGroupsShrinkAlltoallScope) {
  // With EP groups confined to one node, the token Alltoall rides NVLink
  // and the step gets faster than world-wide expert parallelism.
  net::SystemConfig sys = net::SystemConfig::lassen(4);  // 16 GPUs
  TrainingHarness h(sys);
  DSMoEConfig world_wide;
  world_wide.layers = 8;
  DSMoEConfig node_local = world_wide;
  node_local.expert_parallel = 4;  // one node per expert group
  RunResult ww = h.run(DSMoEModel(world_wide, sys), CommPlan::pure("nccl"),
                       FrameworkModel::raw(), quick());
  RunResult nl = h.run(DSMoEModel(node_local, sys), CommPlan::pure("nccl"),
                       FrameworkModel::raw(), quick());
  EXPECT_LT(nl.step_time_us, ww.step_time_us);
}

TEST(ModelTest, ExpertParallelMustDivideWorld) {
  net::SystemConfig sys = net::SystemConfig::lassen(1);  // 4 GPUs
  TrainingHarness h(sys);
  DSMoEConfig cfg;
  cfg.layers = 2;
  cfg.expert_parallel = 3;
  DSMoEModel m(cfg, sys);
  EXPECT_THROW(h.run(m, CommPlan::pure("nccl"), FrameworkModel::raw(), quick()),
               InvalidArgument);
}

// The spatially-partitioned 3D-CNN at two Lassen nodes, flat and through
// the two-level composite (DESIGN.md §15): halo exchanges ride point-to-point
// on the plan's default backend, and the mixed composite pays only with the
// overlap scheduler on (flat < hier without overlap, hier+overlap < flat,
// the ordering BENCH_hier.json's cnn3d series records at 8 ranks).
TEST(ModelTest, Cnn3dHierarchicalPaysOnlyWithOverlap) {
  net::SystemConfig sys = net::SystemConfig::lassen(2);  // 8 GPUs
  TrainingHarness harness(sys);
  Cnn3dModel model(Cnn3dConfig{}, sys);
  EXPECT_EQ(model.name(), "3D-CNN");
  EXPECT_DOUBLE_EQ(model.samples_per_step(8), 16.0);

  const CommPlan hier = CommPlan::hier_allreduce("nccl", "nccl", "mv2-gdr");
  EXPECT_EQ(hier.name, "nccl + hier:nccl+mv2-gdr");
  EXPECT_EQ(hier.backend_for(OpType::AllReduce), "hier:nccl+mv2-gdr");
  EXPECT_EQ(hier.backend_for(OpType::Send), "nccl");
  EXPECT_EQ(CommPlan::hier_allreduce("nccl", "nccl", "mv2-gdr", "label").name, "label");

  RunResult flat = harness.run(model, CommPlan::pure("nccl"), FrameworkModel::raw(), quick());
  HarnessOptions coll = quick();
  coll.mcr_options.coll.enabled = true;
  RunResult serial = harness.run(model, hier, FrameworkModel::raw(), coll);
  coll.mcr_options.coll.overlap = true;
  RunResult overlapped = harness.run(model, hier, FrameworkModel::raw(), coll);
  for (const RunResult* r : {&flat, &serial, &overlapped}) {
    EXPECT_GT(r->throughput, 0.0);
    EXPECT_GT(r->comm_by_op_us.at("send"), 0.0);  // halo exchanges
    EXPECT_GT(r->comm_by_op_us.at("recv"), 0.0);
    EXPECT_GT(r->comm_by_op_us.at("all_reduce"), 0.0);
  }
  EXPECT_LT(flat.step_time_us, serial.step_time_us);
  EXPECT_LT(overlapped.step_time_us, flat.step_time_us);
}

// CommIssuer's broadcast and point-to-point calls follow the plan and move
// real data: a broadcast from root 2 on the plan's broadcast backend, then
// a blocking send/recv ring on its default backend.
TEST(CommIssuerTest, BroadcastAndPointToPointFollowThePlan) {
  ClusterContext cluster(net::SystemConfig::lassen(1));  // 4 GPUs
  McrDl mcr(&cluster);
  CommPlan plan = CommPlan::pure("nccl");
  plan.per_op[OpType::Broadcast] = "mv2-gdr";
  mcr.init({"nccl", "mv2-gdr"});
  const FrameworkModel framework = FrameworkModel::mcr_dl();
  cluster.run_spmd([&](int rank) {
    CommIssuer comm(mcr.on(rank), plan, framework);
    sim::Device* dev = cluster.device(rank);
    const int world = comm.api().world_size();
    Tensor b = Tensor::full({16}, DType::F32, rank == 2 ? 7.0 : 0.0, dev);
    Work bw = comm.broadcast(b, /*root=*/2, /*async_op=*/true);
    bw->wait();
    EXPECT_EQ(bw->backend_name, "mv2-gdr");
    Tensor out = Tensor::full({16}, DType::F32, rank + 1.0, dev);
    Tensor in = Tensor::zeros({16}, DType::F32, dev);
    const int right = (rank + 1) % world;
    const int left = (rank + world - 1) % world;
    Work sent, received;
    if (rank % 2 == 0) {
      sent = comm.send(out, right);
      received = comm.recv(in, left);
    } else {
      received = comm.recv(in, left);
      sent = comm.send(out, right);
    }
    EXPECT_EQ(sent->backend_name, "nccl");
    EXPECT_EQ(received->backend_name, "nccl");
    comm.synchronize();
    EXPECT_DOUBLE_EQ(b.get(0), 7.0);
    EXPECT_DOUBLE_EQ(in.get(15), left + 1.0);
  });
  mcr.finalize();
}

}  // namespace
}  // namespace mcrdl::models
