#include "src/sched/cost_cache.h"

#include <memory>

#include "src/models/dlrm.h"
#include "src/models/megatron.h"
#include "src/models/moe.h"
#include "src/models/resnet.h"
#include "src/tune/tuning.h"

namespace mcrdl::sched {

namespace {

// Contention rungs; quantising up keeps the estimate conservative (a shared
// link is never modelled faster than its true share).
constexpr double kContentionLadder[] = {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0};
constexpr int kNumRungs = static_cast<int>(sizeof(kContentionLadder) / sizeof(double));

int rung_of(double factor) {
  for (int i = 0; i < kNumRungs; ++i) {
    if (factor <= kContentionLadder[i]) return i;
  }
  return kNumRungs - 1;
}

std::unique_ptr<models::Model> make_model(JobModel kind, const net::SystemConfig& system,
                                          bool quick) {
  switch (kind) {
    case JobModel::MoE: {
      models::DSMoEConfig config;
      if (quick) {
        config.layers = 8;
        config.hidden = 512;
        config.seq = 256;
        config.micro_batch = 1;
        config.base_params = 60e6;
      }
      return std::make_unique<models::DSMoEModel>(config, system);
    }
    case JobModel::DLRM: {
      models::DLRMConfig config;
      if (quick) {
        config.global_batch = 2048;
        config.tables_per_rank = 1;
      }
      return std::make_unique<models::DLRMModel>(config, system);
    }
    case JobModel::Megatron: {
      models::MegatronConfig config;
      if (quick) {
        config.layers = 8;
        config.hidden = 1024;
        config.seq = 512;
        config.small_ops_per_layer = 2;
        config.params = 400e6;
        config.zero_bucket_bytes = 32u << 20;
      }
      return std::make_unique<models::MegatronDenseModel>(config, system);
    }
    case JobModel::ResNet: {
      models::ResNet50Config config;
      if (quick) config.grad_buckets = 2;
      return std::make_unique<models::ResNet50Model>(config, system);
    }
  }
  MCRDL_REQUIRE(false, "unknown job model kind");
  return nullptr;
}

}  // namespace

JobCostCache::JobCostCache(net::SystemConfig system, std::string plan, bool quick_models)
    : system_(std::move(system)),
      plan_(std::move(plan)),
      quick_models_(quick_models),
      harness_(system_),
      index_(static_cast<std::size_t>(kNumJobModels) * (system_.world_size() + 1) * kNumRungs,
             nullptr) {
  MCRDL_REQUIRE(!plan_.empty(), "cost cache needs a plan name");
}

double JobCostCache::quantize_contention(double factor) {
  return kContentionLadder[rung_of(factor)];
}

const TuningTable& JobCostCache::table_for(int ranks) {
  auto it = tables_.find(ranks);
  if (it != tables_.end()) return it->second;
  // The paper's workflow, scoped to one slice width: tune the ops the
  // workload models actually issue over a small message grid.
  TuningSuite suite(system_);
  TuningConfig config;
  config.backends = {"nccl", "mv2-gdr"};
  config.ops = {OpType::AllReduce, OpType::AllToAllSingle, OpType::ReduceScatter,
                OpType::AllGather, OpType::Barrier};
  config.sizes = {64u << 10, 1u << 20, 4u << 20, 16u << 20};
  config.world_sizes = {ranks};
  config.iterations = 1;
  config.warmup = 0;
  return tables_.emplace(ranks, suite.generate(config)).first->second;
}

const JobProfile& JobCostCache::profile(JobModel model, int ranks, double inter_contention) {
  MCRDL_REQUIRE(ranks >= 1 && ranks <= system_.world_size(),
                "job slice exceeds the shared world");
  const int rung = rung_of(inter_contention);
  const std::size_t slot =
      (static_cast<std::size_t>(model) * (system_.world_size() + 1) + ranks) * kNumRungs + rung;
  if (index_[slot] == nullptr) {
    index_[slot] = &entries_.emplace_back(measure(model, ranks, kContentionLadder[rung]));
  }
  return *index_[slot];
}

JobProfile JobCostCache::measure(JobModel model, int ranks, double contention) {
  models::CommPlan plan;
  const TuningTable* table = nullptr;
  if (plan_ == "mixed") {
    plan = models::CommPlan::mcr_dl_mixed();
  } else if (plan_ == "tuned") {
    plan = models::CommPlan::mcr_dl_tuned();
    table = &table_for(ranks);
  } else {
    plan = models::CommPlan::pure(plan_);
  }

  models::HarnessOptions options;
  options.warmup_steps = 1;
  options.measured_steps = 1;
  options.contention.inter = contention;

  const std::unique_ptr<models::Model> workload = make_model(model, system_, quick_models_);
  const models::RunResult result =
      harness_.run(*workload, plan, models::FrameworkModel::raw(), options, table, ranks);

  tune_fallbacks_ += result.tune_fallbacks;
  JobProfile profile;
  profile.step_time_us = result.step_time_us;
  profile.comm_time_us = result.comm_time_us;
  profile.compute_time_us = result.compute_time_us;
  return profile;
}

}  // namespace mcrdl::sched
