// Tests for the OpPipeline dispatch layer: stage order and hooks (a hook
// sees every operation), uniform routing metadata in CommRecords, OpRequest
// payload conventions, config changes taking effect on the next op, the
// invariant that an op emulated through the pipeline produces the same data
// as a native one, and replay identity across rebuilt runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void make(int nodes = 2, McrDlOptions opts = {}) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes));
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
  }
  int world() const { return cluster_->world_size(); }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
};

TEST_F(PipelineTest, BuiltInStageOrder) {
  make();
  EXPECT_EQ(mcr_->pipeline().stage_names(),
            (std::vector<std::string>{"overhead", "resolve", "fusion", "compression", "finish",
                                      "recover", "coll", "route", "issue"}));
}

// A pass-through hook that tallies every operation flowing past it.
class CountingStage : public OpStage {
 public:
  explicit CountingStage(std::vector<OpType>* seen) : seen_(seen) {}
  const char* name() const override { return "counting"; }
  Work run(OpCall& call, const OpNext& next) override {
    // Runs before fusion, so the backend decision is visible here.
    EXPECT_NE(call.requested, kNoBackend);
    seen_->push_back(call.req.op);
    return next();
  }

 private:
  std::vector<OpType>* seen_;
};

TEST_F(PipelineTest, CustomStageSeesEveryOperation) {
  make();
  mcr_->init({"nccl"});
  std::vector<OpType> seen;
  // Fusion is off, so the stage the hook precedes is bypassed; the hook
  // still runs on every op.
  mcr_->pipeline().insert_before("fusion", std::make_unique<CountingStage>(&seen));
  EXPECT_EQ(mcr_->pipeline().stage_names()[2], "counting");
  EXPECT_EQ(mcr_->pipeline().stage_names().size(), 10u);

  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    sim::Device* dev = cluster_->device(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, dev);
    api.all_reduce("nccl", t);
    api.barrier("nccl");
  });
  // Every rank's all_reduce and barrier passed through the custom stage.
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(2 * world()));
  EXPECT_EQ(static_cast<int>(std::count(seen.begin(), seen.end(), OpType::AllReduce)), world());
  EXPECT_EQ(static_cast<int>(std::count(seen.begin(), seen.end(), OpType::Barrier)), world());
  // A hook has no histogram of its own; the stage it precedes counts every op.
  const obs::MetricsRegistry& m = cluster_->metrics();
  EXPECT_EQ(m.find_histogram("pipeline_stage_us", {{"stage", "counting"}}), nullptr);
  const obs::Histogram* fusion = m.find_histogram("pipeline_stage_us", {{"stage", "fusion"}});
  ASSERT_NE(fusion, nullptr);
  EXPECT_EQ(fusion->count(), static_cast<std::uint64_t>(2 * world()));
}

TEST_F(PipelineTest, InsertAtUnknownStageThrows) {
  make();
  std::vector<OpType> seen;
  EXPECT_THROW(mcr_->pipeline().insert_before("no-such-stage",
                                              std::make_unique<CountingStage>(&seen)),
               InvalidArgument);
  // Hooks attach to built-in stages only, not to other hooks.
  mcr_->pipeline().insert_before("route", std::make_unique<CountingStage>(&seen));
  EXPECT_THROW(mcr_->pipeline().insert_before("counting",
                                              std::make_unique<CountingStage>(&seen)),
               InvalidArgument);
}

// Satellite fix for the old `routed` path: routing metadata is recorded
// uniformly — requested_backend is filled even when the op ran exactly where
// it was asked to, with rerouted=false and attempts=1.
TEST_F(PipelineTest, RoutingMetadataRecordedUniformly) {
  McrDlOptions opts;
  opts.logging_enabled = true;
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  TuningTable table;
  table.set(OpType::AllReduce, world(), 1 << 26, "mv2-gdr");
  mcr_->set_tuning_table(std::move(table));

  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    sim::Device* dev = cluster_->device(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, dev);
    api.all_reduce("nccl", t);
    Tensor u = Tensor::full({8}, DType::F32, 1.0, dev);
    api.all_reduce("auto", u);
  });

  ASSERT_EQ(mcr_->logger().records().size(), static_cast<std::size_t>(2 * world()));
  for (const CommRecord& r : mcr_->logger().records()) {
    EXPECT_FALSE(r.rerouted);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_TRUE(r.fault.empty());
    // "auto" resolved through the tuning table; the record names the winner.
    EXPECT_EQ(r.requested_backend, r.backend);
    EXPECT_FALSE(r.requested_backend.empty());
  }
}

// The same v-collective produces identical data whether the backend runs it
// natively (mv2-gdr) or the pipeline's issue stage emulates it (nccl).
TEST_F(PipelineTest, EmulatedOpMatchesNativeThroughPipeline) {
  make();
  mcr_->init({"nccl", "mv2-gdr"});
  const int n = world();
  ASSERT_FALSE(mcr_->backend("nccl")->profile().is_native(OpType::AllGatherV));
  ASSERT_TRUE(mcr_->backend("mv2-gdr")->profile().is_native(OpType::AllGatherV));

  std::vector<std::vector<double>> emulated(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> native(static_cast<std::size_t>(n));
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    sim::Device* dev = cluster_->device(rank);
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r % 3 + 1);
      displs.push_back(total);
      total += r % 3 + 1;
    }
    for (const std::string& backend : {std::string("nccl"), std::string("mv2-gdr")}) {
      Tensor in = Tensor::full({rank % 3 + 1}, DType::F32, rank + 0.5, dev);
      Tensor out = Tensor::zeros({total}, DType::F32, dev);
      api.all_gatherv(backend, out, in, counts, displs);
      (backend == "nccl" ? emulated : native)[static_cast<std::size_t>(rank)] = out.to_vector();
    }
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(emulated[static_cast<std::size_t>(r)], native[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_FALSE(native[static_cast<std::size_t>(r)].empty());
  }
}

TEST_F(PipelineTest, PayloadBytesFollowsPerOpConvention) {
  Tensor t = Tensor::zeros({8}, DType::F32, nullptr);     // 32 bytes
  Tensor in = Tensor::zeros({4}, DType::F32, nullptr);    // 16 bytes
  Tensor out = Tensor::zeros({16}, DType::F32, nullptr);  // 64 bytes

  OpRequest req;
  req.tensor = t;
  req.input = in;
  req.output = out;
  req.inputs = {in, in, in};

  req.op = OpType::AllReduce;
  EXPECT_EQ(req.payload_bytes(), 32u);
  req.op = OpType::Send;
  EXPECT_EQ(req.payload_bytes(), 32u);
  req.op = OpType::AllGather;
  EXPECT_EQ(req.payload_bytes(), 16u);
  req.op = OpType::AllToAllV;
  EXPECT_EQ(req.payload_bytes(), 16u);
  req.op = OpType::Scatter;
  EXPECT_EQ(req.payload_bytes(), 64u);
  req.op = OpType::AllToAll;
  EXPECT_EQ(req.payload_bytes(), 48u);  // sum over the input list
  req.op = OpType::Barrier;
  EXPECT_EQ(req.payload_bytes(), 0u);
}

// fusion().set_config and compression().set_config between two ops of a run
// take effect on the very next op, in both directions.
TEST_F(PipelineTest, ConfigChangesTakeEffectOnTheNextOp) {
  McrDlOptions opts;
  opts.logging_enabled = true;
  make(1, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  const auto toggle = [&](bool on) {
    FusionConfig fusion;
    fusion.enabled = on;
    mcr_->fusion().set_config(fusion);
    CompressionConfig compression;
    compression.enabled = on;
    mcr_->compression().set_config(compression);
  };
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    sim::Device* dev = cluster_->device(rank);
    Tensor small = Tensor::phantom({64}, DType::F32, dev);        // fusion-sized
    Tensor large = Tensor::phantom({1 << 15}, DType::F32, dev);   // 128 KiB: compressible
    for (const bool on : {false, true, false}) {
      // The host-synchronous barriers keep every rank's ops on the same side
      // of the change; barriers are neither bucketed nor compressed.
      api.barrier("mv2-gdr");
      if (rank == 0) toggle(on);
      api.barrier("mv2-gdr");
      api.all_reduce("nccl", small);
      api.broadcast("nccl", large, /*root=*/0);
      api.synchronize();
    }
  });
  std::vector<std::string> got;
  for (const CommRecord& r : mcr_->logger().records()) {
    if (r.rank != 0 || r.op == OpType::Barrier) continue;
    got.push_back(std::string(op_name(r.op)) + (r.fused ? " fused" : "") +
                  (r.compressed ? " compressed" : ""));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"all_reduce", "broadcast", "all_reduce fused",
                                           "broadcast compressed", "all_reduce", "broadcast"}));
}

// The dispatch arena recycles OpCalls: slot creation must stop once every
// rank has warmed its pool, no matter how many ops follow.
TEST_F(PipelineTest, ArenaSlotCountPlateausInSteadyState) {
  make();
  mcr_->init({"nccl"});
  std::size_t after_warmup = 0;
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    for (int i = 0; i < 4; ++i) {
      Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
      api.all_reduce("nccl", t);
    }
    api.barrier("nccl");
    // Draining the stream waits out the barrier, so every rank has dispatched
    // its warmup ops (and warmed its pool) before this returns.
    api.synchronize();
    if (rank == 0) after_warmup = mcr_->pipeline().arena_slots();
    api.barrier("nccl");
    for (int i = 0; i < 64; ++i) {
      Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
      api.all_reduce("nccl", t);
    }
  });
  EXPECT_GT(after_warmup, 0u);
  EXPECT_EQ(mcr_->pipeline().arena_slots(), after_warmup)
      << "steady-state dispatch must reuse arena slots, not create new ones";
}

// --- replay identity across rebuilt runtimes -----------------------------------
//
// The shape of the host-speed benchmark's correctness checks: a seeded "auto"
// mix across a tuning crossover plus one subgroup op per cycle, logger on,
// run for several barrier-separated cycles; then the runtime is dropped,
// rebuilt in the same process and the program replayed. Cycle durations,
// per-backend issue counts, completion counts, stage-histogram counts and
// sums, and the whole CommLogger trace must match exactly. The first runtime
// carries a pass-through hook before every stage, as a traced benchmark run
// does; hooks must not move anything.

constexpr int kReplayWorld = 8;
constexpr int kReplaySizes = 11;  // 256 B .. 256 KiB
constexpr int kReplayOpsPerCycle = 48;
constexpr int kReplayCycles = 4;
const std::vector<std::string> kReplayBackends = {"nccl", "mv2-gdr"};

std::size_t replay_bytes(int size) { return std::size_t{256} << size; }

struct ReplayOp {
  OpType type = OpType::AllReduce;
  int size = 0;
  int root = 0;
};

std::vector<ReplayOp> replay_program(std::uint64_t seed) {
  const OpType types[] = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Broadcast};
  Rng rng(seed);
  std::vector<ReplayOp> program;
  for (int i = 0; i < kReplayOpsPerCycle; ++i) {
    ReplayOp op;
    op.type = types[rng.next_below(3)];
    op.size = static_cast<int>(rng.next_below(kReplaySizes));
    op.root = static_cast<int>(rng.next_below(kReplayWorld));
    program.push_back(op);
  }
  return program;
}

TuningTable replay_table() {
  TuningTable table;
  for (OpType op : {OpType::AllReduce, OpType::AllToAllSingle, OpType::Broadcast}) {
    table.set(op, kReplayWorld, 8 << 10, "mv2-gdr");
    table.set(op, kReplayWorld, replay_bytes(kReplaySizes - 1), "nccl");
  }
  return table;
}

class PassThroughHook : public OpStage {
 public:
  const char* name() const override { return "pass-through"; }
  Work run(OpCall&, const OpNext& next) override { return next(); }
};

struct ReplayObservation {
  std::vector<double> cycle_us;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, double> stage_sums;
  std::string trace;
};

ReplayObservation run_replay(const std::vector<ReplayOp>& program, bool hooks) {
  McrDlOptions opts;
  opts.logging_enabled = true;
  auto cluster = std::make_unique<ClusterContext>(net::SystemConfig::lassen(kReplayWorld / 4));
  auto mcr = std::make_unique<McrDl>(cluster.get(), opts);
  mcr->init(kReplayBackends);
  mcr->set_tuning_table(replay_table());
  if (hooks) {
    for (const std::string& stage : mcr->pipeline().stage_names()) {
      mcr->pipeline().insert_before(stage, std::make_unique<PassThroughHook>());
    }
  }
  ReplayObservation obs;
  cluster->run_spmd([&](int rank) {
    Api api = mcr->on(rank);
    sim::Device* dev = cluster->device(rank);
    std::vector<Tensor> in, out;
    for (int s = 0; s < kReplaySizes; ++s) {
      const auto elems = static_cast<std::int64_t>(replay_bytes(s) / 4);
      in.push_back(Tensor::phantom({elems}, DType::F32, dev));
      out.push_back(Tensor::phantom({elems}, DType::F32, dev));
    }
    std::vector<int> half;
    for (int r = rank % 2; r < kReplayWorld; r += 2) half.push_back(r);
    Api sub = api.group(half);
    const auto cycle = [&] {
      for (const ReplayOp& op : program) {
        const auto s = static_cast<std::size_t>(op.size);
        switch (op.type) {
          case OpType::AllReduce:
            api.all_reduce("auto", in[s], ReduceOp::Sum, true);
            break;
          case OpType::AllToAllSingle:
            api.all_to_all_single("auto", out[s], in[s], true);
            break;
          default:
            api.broadcast("auto", in[s], op.root, true);
            break;
        }
      }
      sub.all_reduce("nccl", in[0], ReduceOp::Sum, true);
      api.synchronize();
    };
    cycle();  // warm-up
    api.barrier("mv2-gdr");
    SimTime mark = cluster->scheduler().now();
    for (int i = 0; i < kReplayCycles; ++i) {
      cycle();
      api.barrier("mv2-gdr");
      if (rank == 0) {
        const SimTime now = cluster->scheduler().now();
        obs.cycle_us.push_back(now - mark);
        mark = now;
      }
    }
  });
  const obs::MetricsRegistry& m = cluster->metrics();
  for (const std::string& b : kReplayBackends) {
    for (std::size_t op = 0; op < kOpTypeCount; ++op) {
      const std::string name = op_name(static_cast<OpType>(op));
      const obs::Labels labels{{"backend", b}, {"op", name}};
      obs.counts["comm_ops." + b + "." + name] = m.counter_value("comm_ops", labels);
      obs.counts["pipeline_ops." + b + "." + name] = m.counter_value("pipeline_ops", labels);
    }
  }
  for (const char* stage : {"overhead", "resolve", "fusion", "compression", "finish", "recover",
                            "coll", "route", "issue"}) {
    const obs::Histogram* h = m.find_histogram("pipeline_stage_us", {{"stage", stage}});
    obs.counts[std::string("pipeline_stage_us.") + stage] = h == nullptr ? 0 : h->count();
    obs.stage_sums[stage] = h == nullptr ? -1.0 : h->sum();
  }
  for (const CommRecord& r : mcr->logger().records()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%d %s %s %zu %a %a\n", r.rank, op_name(r.op),
                  r.backend.c_str(), r.bytes, r.start, r.end);
    obs.trace += line;
  }
  return obs;
}

TEST(PipelineReplay, RebuiltRuntimeReplaysIdentically) {
  for (const std::uint64_t seed : {2ull, 1000003ull}) {
    const std::vector<ReplayOp> program = replay_program(seed);
    const ReplayObservation first = run_replay(program, /*hooks=*/true);
    ASSERT_EQ(first.cycle_us.size(), static_cast<std::size_t>(kReplayCycles));
    // The crossover splits the mix across both backends.
    std::uint64_t nccl = 0, mv2 = 0;
    for (const auto& [name, n] : first.counts) {
      if (name.rfind("comm_ops.nccl.", 0) == 0) nccl += n;
      if (name.rfind("comm_ops.mv2-gdr.", 0) == 0) mv2 += n;
    }
    EXPECT_GT(nccl, 0u);
    EXPECT_GT(mv2, 0u);
    for (int rebuild = 0; rebuild < 2; ++rebuild) {
      const ReplayObservation again = run_replay(program, /*hooks=*/false);
      EXPECT_EQ(again.cycle_us, first.cycle_us) << "seed " << seed;
      EXPECT_EQ(again.counts, first.counts) << "seed " << seed;
      EXPECT_EQ(again.stage_sums, first.stage_sums) << "seed " << seed;
      EXPECT_EQ(again.trace, first.trace) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mcrdl
