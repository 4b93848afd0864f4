// Tests for the OpPipeline dispatch layer: stage order and composability
// (custom stages see every operation), uniform routing metadata in
// CommRecords, OpRequest payload conventions, and the invariant that an op
// emulated through the pipeline produces the same data as a native one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

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

// A pass-through stage that tallies every operation flowing past it.
class CountingStage : public OpStage {
 public:
  explicit CountingStage(std::vector<OpType>* seen) : seen_(seen) {}
  const char* name() const override { return "counting"; }
  Work run(OpCall& call, const OpNext& next) override {
    // Inserted after resolve, so the backend decision is visible here.
    EXPECT_NE(call.resolved, nullptr);
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
  mcr_->pipeline().insert_after("resolve", std::make_unique<CountingStage>(&seen));
  EXPECT_EQ(mcr_->pipeline().stage_names()[2], "counting");

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
}

TEST_F(PipelineTest, InsertAtUnknownStageThrows) {
  make();
  std::vector<OpType> seen;
  EXPECT_THROW(mcr_->pipeline().insert_before("no-such-stage",
                                              std::make_unique<CountingStage>(&seen)),
               InvalidArgument);
  EXPECT_THROW(mcr_->pipeline().insert_after("no-such-stage",
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

// Fast-path stage plans (DESIGN.md §14): with every optional subsystem off,
// the compiled plan runs only the stages that can do work, and flipping a
// toggle (fusion enabled, overhead > 0) re-admits the matching stage without
// any explicit invalidation call.
TEST_F(PipelineTest, StagePlansElideProvablyNoopStages) {
  make();
  mcr_->init({"nccl"});
  // Default options: overhead 0, fusion/compression disabled, recovery off.
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::AllReduce),
            (std::vector<std::string>{"resolve", "finish", "route", "issue"}));

  // Enabling fusion re-admits the fusion stage for admitted ops only.
  FusionConfig fusion;
  fusion.enabled = true;
  mcr_->fusion().set_config(fusion);
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::AllReduce),
            (std::vector<std::string>{"resolve", "fusion", "finish", "route", "issue"}));
  // Broadcast is not in the default bucketable set: still elided.
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::Broadcast),
            (std::vector<std::string>{"resolve", "finish", "route", "issue"}));

  // Compression admits only its movement ops.
  CompressionConfig comp;
  comp.enabled = true;
  mcr_->compression().set_config(comp);
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::Broadcast),
            (std::vector<std::string>{"resolve", "compression", "finish", "route", "issue"}));
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::AllReduce),
            (std::vector<std::string>{"resolve", "fusion", "finish", "route", "issue"}));

  // Per-call overhead re-admits the overhead stage for everything.
  mcr_->options().per_call_overhead_us = 1.5;
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::Barrier),
            (std::vector<std::string>{"overhead", "resolve", "finish", "route", "issue"}));
}

// Custom stages have no provably_noop proof, so they always run — and
// inserting one invalidates previously compiled plans.
TEST_F(PipelineTest, CustomStagesAreNeverElided) {
  make();
  mcr_->init({"nccl"});
  // Force a plan compile before the insert.
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::AllReduce).size(), 4u);
  std::vector<OpType> seen;
  mcr_->pipeline().insert_after("resolve", std::make_unique<CountingStage>(&seen));
  EXPECT_EQ(mcr_->pipeline().active_stage_names(OpType::AllReduce),
            (std::vector<std::string>{"resolve", "counting", "finish", "route", "issue"}));
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
    api.all_reduce("nccl", t);
    api.synchronize();  // nccl works complete on the stream, not at wait()
    EXPECT_DOUBLE_EQ(t.get(0), 1.0 * world());
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(world()));
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

}  // namespace
}  // namespace mcrdl
