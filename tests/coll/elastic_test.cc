// Elastic recovery across in-flight composites: a rank loss mid-chain must
// leave survivors agreeing on the reduced data (sync composites replay
// through the parent recover stage, async ones through the chain's own
// redispatch closure), and a later rejoin grows the world back under both
// execution engines. Runs on mv2-gdr at both levels — host-synchronous, so
// errors surface to the issuing rank, mirroring tests/fault/recovery_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"
#include "src/fault/recovery.h"

namespace mcrdl {
namespace {

constexpr const char* kAlgo = "hier:mv2-gdr+mv2-gdr";

// The deterministic loss recipe from tests/fault/recovery_test.cc: the dying
// rank goes silent shortly before it is declared lost, so peers are parked
// in a pending rendezvous (here: mid-chain) when the loss event fires. The
// straggler window is bounded at the loss instant so the rank can rejoin.
void add_loss(fault::FaultPlan& plan, int rank, SimTime at) {
  plan.specs.push_back(
      fault::FaultSpec::straggler(rank, 10 * at, /*from_us=*/at * 0.8, /*until_us=*/at));
  plan.specs.push_back(fault::FaultSpec::lose_rank(rank, at));
}

struct ElasticRun {
  std::vector<double> finals;   // final tensor value per rank (0 = did not finish)
  std::vector<double> spreads;  // max-min over sampled elements (0 = tensor uniform)
  std::vector<int> died;        // int, not bool: same-instant actors write concurrently
};

// `iters` composite allreduce-sum iterations, 400us apart, starting from
// rank+1; dead ranks unwind via RankLostError or the loss predicate.
ElasticRun run_elastic(McrDl& mcr, ClusterContext& cluster, int iters, bool async,
                       const char* algo = kAlgo, std::int64_t numel = 64) {
  ElasticRun out;
  const auto world = static_cast<std::size_t>(cluster.world_size());
  out.finals.assign(world, 0.0);
  out.spreads.assign(world, 0.0);
  out.died.assign(world, 0);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({numel}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    for (int i = 0; i < iters; ++i) {
      if (cluster.faults().rank_lost(rank)) {
        out.died[static_cast<std::size_t>(rank)] = 1;
        return;
      }
      try {
        Work w = api.all_reduce(algo, t, ReduceOp::Sum, async);
        if (async) w->wait();
      } catch (const RankLostError&) {
        out.died[static_cast<std::size_t>(rank)] = 1;
        return;
      }
      cluster.scheduler().sleep_for(400.0);
    }
    api.synchronize();
    // Inputs are per-rank uniform, so every correct sum-allreduce schedule
    // leaves the tensor uniform. A recovery that replays at slice
    // granularity instead of op granularity shows up right here: chunk
    // slices published before the loss disagree with replayed ones (one
    // element sampled per possible chunk, plus both ends).
    double lo = t.get(0), hi = lo;
    for (std::int64_t idx :
         {numel / 8, 3 * numel / 8, 5 * numel / 8, 7 * numel / 8, numel - 1}) {
      const double v = t.get(idx);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    out.spreads[static_cast<std::size_t>(rank)] = hi - lo;
    out.finals[static_cast<std::size_t>(rank)] = t.get(0);
  });
  return out;
}

// Virtual time one clean composite allreduce of `numel` elements takes on a
// fresh cluster — used to pin a loss instant *inside* a composite without
// hardcoding cost-model constants: the straggler lead-in then covers only
// the tail of the op, so early chunk-chains complete before the loss and
// late ones park mid-rendezvous.
SimTime measure_composite(const char* algo, int nodes, std::int64_t numel) {
  ClusterContext cluster(net::SystemConfig::lassen(nodes), sim::ExecutionConfig::serial());
  McrDlOptions opts;
  opts.coll.enabled = true;
  opts.coll.overlap = true;
  McrDl mcr(&cluster, opts);
  mcr.init({"mv2-gdr"});
  SimTime dur = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({numel}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    api.all_reduce(algo, t, ReduceOp::Sum);
    api.synchronize();
    if (rank == 0) dur = cluster.scheduler().now();
  });
  return dur;
}

// Survivors agree and their value is explainable as k full-world iterations
// followed by iters-k shrunk-world ones (same invariant recovery_test pins
// for flat allreduces — composites must not weaken it).
void check_survivor_value(const ElasticRun& run, int world, int iters) {
  std::vector<int> survivors;
  for (int r = 0; r < world; ++r) {
    if (!run.died[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  ASSERT_FALSE(survivors.empty());
  const double got = run.finals[static_cast<std::size_t>(survivors.front())];
  for (int r : survivors) {
    EXPECT_DOUBLE_EQ(run.finals[static_cast<std::size_t>(r)], got)
        << "survivors diverged at rank " << r;
    EXPECT_DOUBLE_EQ(run.spreads[static_cast<std::size_t>(r)], 0.0)
        << "rank " << r << " tensor is not uniform: chunk slices saw different memberships";
  }
  const double m = static_cast<double>(world);
  const double w = static_cast<double>(survivors.size());
  double sub_sum = 0.0;
  for (int r : survivors) sub_sum += static_cast<double>(r + 1);
  bool matched = false;
  for (int k = 0; k <= iters && !matched; ++k) {
    const double candidate =
        k == 0 ? sub_sum * std::pow(w, iters - 1)
               : (m * (m + 1) / 2.0) * std::pow(m, k - 1) * std::pow(w, iters - k);
    matched = got == candidate;
  }
  std::string dump;
  for (int r = 0; r < world; ++r) {
    dump += " rank" + std::to_string(r) + "=" +
            std::to_string(run.finals[static_cast<std::size_t>(r)]) +
            (run.died[static_cast<std::size_t>(r)] ? "(died)" : "") +
            " spread=" + std::to_string(run.spreads[static_cast<std::size_t>(r)]);
  }
  EXPECT_TRUE(matched) << "survivor value " << got
                       << " is not a full-world/shrunk-world iteration split;" << dump;
}

class ElasticCollTest : public ::testing::TestWithParam<sim::ExecutionConfig> {
 protected:
  void make(int nodes, McrDlOptions opts) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes), GetParam());
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
  }
  static McrDlOptions elastic_opts(bool overlap) {
    McrDlOptions opts;
    opts.coll.enabled = true;
    opts.coll.overlap = overlap;
    opts.fault.enabled = true;
    return opts;
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
};

std::string config_name(const ::testing::TestParamInfo<sim::ExecutionConfig>& info) {
  return info.param.kind == sim::ExecutionModelKind::SerialBaton
             ? "serial"
             : "parallel" + std::to_string(info.param.threads);
}

TEST_P(ElasticCollTest, ShrinkMidSyncCompositeSurvivorsAgree) {
  McrDlOptions opts = elastic_opts(/*overlap=*/false);
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  make(2, opts);
  mcr_->init({"mv2-gdr"});
  ASSERT_TRUE(mcr_->recovery().armed());

  const ElasticRun run = run_elastic(*mcr_, *cluster_, /*iters=*/10, /*async=*/false);
  EXPECT_TRUE(run.died[1]);
  check_survivor_value(run, cluster_->world_size(), 10);
  const fault::RecoveryStats& stats = mcr_->recovery().stats();
  EXPECT_EQ(stats.ranks_lost, 1u);
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_GT(stats.recovered_ops, 0u);
}

TEST_P(ElasticCollTest, ShrinkMidAsyncOverlappedCompositeSurvivorsAgree) {
  // Async + overlap: the failure lands on chunk-chains whose parent pipeline
  // frame is long gone — recovery must flow through the chains' redispatch
  // closures, and the stale-epoch sweep must bounce the cancelled chunks.
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  make(2, opts);
  mcr_->init({"mv2-gdr"});

  const ElasticRun run = run_elastic(*mcr_, *cluster_, /*iters=*/10, /*async=*/true);
  EXPECT_TRUE(run.died[1]);
  check_survivor_value(run, cluster_->world_size(), 10);
  EXPECT_EQ(mcr_->recovery().stats().epochs, 1u);
}

// The sync x overlap cell of the matrix, with a payload big enough that the
// loss instant falls between chunk-chain completions: chunks that finished
// before the loss already published full-world sums into their slices (and
// cannot be failed — their restore ran out on completion), while the parked
// ones bounce for replay. The whole-tensor replay through the parent
// pipeline's recover stage must start from pristine bytes for *every* slice
// — per-chunk restores would let it re-reduce the completed slices into
// survivors*old_sum.
TEST_P(ElasticCollTest, ShrinkMidSyncOverlappedCompositeSurvivorsAgree) {
  constexpr std::int64_t kNumel = 1 << 18;
  const SimTime dur = measure_composite(kAlgo, /*nodes=*/2, kNumel);
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  // No straggler lead-in: a per-rank slowdown desynchronises the two nodes'
  // closing broadcasts, making the composite complete on one node and fail
  // on the other — a different (cross-rank) scenario. A bare loss instant
  // keeps completion cross-rank atomic and lands between chunk completions.
  opts.fault.plan.specs.push_back(fault::FaultSpec::lose_rank(1, 0.6 * dur));
  make(2, opts);
  mcr_->init({"mv2-gdr"});

  const ElasticRun run = run_elastic(*mcr_, *cluster_, /*iters=*/6, /*async=*/false,
                                     kAlgo, kNumel);
  EXPECT_TRUE(run.died[1]);
  check_survivor_value(run, cluster_->world_size(), 6);
  EXPECT_EQ(mcr_->recovery().stats().epochs, 1u);
  EXPECT_GT(mcr_->recovery().stats().recovered_ops, 0u);
}

// Same straddled-loss shape, async: completed chunks keep their handles, the
// failed ones flow through the shared recover closure — which must replay
// the *whole* tensor exactly once, not each failed slice on the shrunk group
// (that would leave one tensor mixing two memberships).
TEST_P(ElasticCollTest, ShrinkMidAsyncOverlappedCompositeOpGranularityReplay) {
  constexpr std::int64_t kNumel = 1 << 18;
  const SimTime dur = measure_composite(kAlgo, /*nodes=*/2, kNumel);
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  opts.fault.plan.specs.push_back(fault::FaultSpec::lose_rank(1, 0.6 * dur));
  make(2, opts);
  mcr_->init({"mv2-gdr"});

  const ElasticRun run = run_elastic(*mcr_, *cluster_, /*iters=*/6, /*async=*/true,
                                     kAlgo, kNumel);
  EXPECT_TRUE(run.died[1]);
  check_survivor_value(run, cluster_->world_size(), 6);
  EXPECT_EQ(mcr_->recovery().stats().epochs, 1u);
}

// rsag publishes each chunk's reduced slice in its success-path finalize, so
// chunked rsag needs the shared whole-tensor restore exactly like hier's
// in-place phases do (unchunked rsag replays cleanly without one).
TEST_P(ElasticCollTest, ShrinkMidOverlappedRsagSurvivorsAgree) {
  constexpr const char* kRsag = "rsag:mv2-gdr";
  constexpr std::int64_t kNumel = 1 << 18;
  const SimTime dur = measure_composite(kRsag, /*nodes=*/2, kNumel);
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  opts.fault.plan.specs.push_back(fault::FaultSpec::lose_rank(1, 0.6 * dur));
  make(2, opts);
  mcr_->init({"mv2-gdr"});

  const ElasticRun run = run_elastic(*mcr_, *cluster_, /*iters=*/6, /*async=*/false,
                                     kRsag, kNumel);
  EXPECT_TRUE(run.died[1]);
  check_survivor_value(run, cluster_->world_size(), 6);
  EXPECT_EQ(mcr_->recovery().stats().epochs, 1u);
}

TEST_P(ElasticCollTest, ShrinkThenRejoinAcrossComposites) {
  // Phase one absorbs the loss mid-composite; everyone parks past the rejoin
  // instant (virtual-time barrier); phase two's full-world composite
  // allreduce equalises every participant including the returnee.
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  opts.fault.plan.specs.push_back(fault::FaultSpec::rejoin_rank(1, 30000.0));
  make(1, opts);  // 4 ranks
  mcr_->init({"mv2-gdr"});

  const auto world = static_cast<std::size_t>(cluster_->world_size());
  std::vector<double> finals(world, 0.0);
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({64}, DType::F32, static_cast<double>(rank + 1),
                            cluster_->device(rank));
    for (int i = 0; i < 5; ++i) {
      if (cluster_->faults().rank_lost(rank)) break;
      try {
        api.all_reduce(kAlgo, t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        break;
      }
      cluster_->scheduler().sleep_for(400.0);
    }
    const SimTime wake = 30000.0 + 401.0;
    if (cluster_->scheduler().now() < wake) {
      cluster_->scheduler().sleep_for(wake - cluster_->scheduler().now());
    }
    for (int i = 0; i < 3; ++i) {
      if (cluster_->faults().rank_lost(rank)) return;
      try {
        api.all_reduce(kAlgo, t, ReduceOp::Sum);
      } catch (const RankLostError&) {
        return;
      }
      cluster_->scheduler().sleep_for(400.0);
    }
    api.synchronize();
    finals[static_cast<std::size_t>(rank)] = t.get(0);
  });

  // The rejoin restored the full world: every rank finished phase two and
  // the closing full-world allreduces left them all agreeing.
  const double got = finals[0];
  EXPECT_GT(got, 0.0);
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_DOUBLE_EQ(finals[r], got) << "rank " << r << " diverged after rejoin";
  }
  EXPECT_GE(mcr_->recovery().stats().epochs, 2u);  // shrink + grow
  EXPECT_EQ(mcr_->recovery().survivors(),
            (std::vector<int>{0, 1, 2, 3}));
}

// The casualty abandons its overlapped composite mid-flight: its chunk
// chains fail for good, so the chunk-group can never complete, yet the
// finish stage's closure on the group captures the group itself. Every work
// issued must still be freed with the runtime.
TEST_P(ElasticCollTest, AbandonedOverlappedCompositeWorksAreFreed) {
  McrDlOptions opts = elastic_opts(/*overlap=*/true);
  add_loss(opts.fault.plan, /*rank=*/1, /*at=*/2500.0);
  make(2, opts);
  mcr_->init({"mv2-gdr"});
  std::mutex mu;  // same-instant actors run concurrently under shards
  std::vector<std::weak_ptr<WorkHandle>> issued;
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({64}, DType::F32, 1.0, cluster_->device(rank));
    for (int i = 0; i < 10 && !cluster_->faults().rank_lost(rank); ++i) {
      try {
        Work w = api.all_reduce(kAlgo, t, ReduceOp::Sum, /*async_op=*/true);
        {
          std::lock_guard<std::mutex> lock(mu);
          issued.push_back(w);
        }
        w->wait();
      } catch (const RankLostError&) {
        return;
      }
      cluster_->scheduler().sleep_for(400.0);
    }
    api.synchronize();
  });
  EXPECT_EQ(mcr_->recovery().stats().ranks_lost, 1u);
  mcr_.reset();
  cluster_.reset();
  ASSERT_FALSE(issued.empty());
  for (std::size_t i = 0; i < issued.size(); ++i) {
    EXPECT_TRUE(issued[i].expired()) << "work " << i << " outlived its runtime";
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ElasticCollTest,
                         ::testing::Values(sim::ExecutionConfig::serial(),
                                           sim::ExecutionConfig::parallel(4)),
                         config_name);

}  // namespace
}  // namespace mcrdl
