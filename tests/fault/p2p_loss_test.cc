// Pending point-to-point operations across permanent rank loss, rejoin and
// backend outage (DESIGN.md §13): the P2pEngine's quiesce and grow hooks
// and its classification at match, on a stream backend and on a host-MPI
// backend.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/backends/backend.h"
#include "src/fault/recovery.h"

namespace mcrdl {
namespace {

// Above Backend::kConcurrentSmallMessageLimit, so every transfer travels on
// communication stream 0 and looking that stream up moves no cursor.
constexpr int kElems = 32 * 1024;

class P2pLossTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Installs `plan` and arms elastic recovery, as McrDl::init does.
  void make(const fault::FaultPlan& plan) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(1));  // 4 ranks
    cluster_->faults().configure(plan);
    cluster_->faults().recovery().arm(cluster_->world_size());
    backend_ = make_backend(GetParam(), cluster_.get());
    backend_->init();
  }

  Comm& world() { return *backend_->world(); }
  Tensor payload(int rank, double value) {
    return Tensor::full({kElems}, DType::F32, value, cluster_->device(rank));
  }
  // The rank's communication stream for kElems payloads; null on host-MPI
  // backends.
  sim::Stream* comm_stream(int rank) {
    auto* stream_backend = dynamic_cast<StreamBackend*>(backend_.get());
    return stream_backend == nullptr ? nullptr
                                     : stream_backend->comm_stream(rank, kElems * sizeof(float));
  }
  void sleep_until(SimTime t) {
    sim::Scheduler& sched = cluster_->scheduler();
    if (sched.now() < t) sched.sleep_for(t - sched.now());
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<Backend> backend_;
};

TEST_P(P2pLossTest, LostPeerCancelsUnmatchedAsyncSend) {
  fault::FaultPlan plan;
  plan.specs.push_back(fault::FaultSpec::lose_rank(1, 100.0));
  make(plan);
  std::weak_ptr<WorkHandle> weak;
  cluster_->run_spmd(2, [&](int rank) {
    if (rank == 1) return;  // never posts the matching recv, then is lost
    Work send = world().send(rank, payload(rank, 1.0), 1, /*async_op=*/true);
    weak = send;
    sim::Stream* stream = comm_stream(rank);
    sleep_until(50.0);
    EXPECT_FALSE(send->test());
    if (stream != nullptr) {
      EXPECT_FALSE(stream->idle()) << "the unmatched send parks its stream at the gate";
      // The loss cancels the send, and cancel() opens its one gate: the
      // stream passes the arrival op and completes the work's done event.
      send->synchronize();
      EXPECT_DOUBLE_EQ(cluster_->scheduler().now(), 100.0);
      stream->synchronize();
      EXPECT_TRUE(stream->idle());
    } else {
      EXPECT_THROW(send->wait(), RankLostError);
      EXPECT_DOUBLE_EQ(cluster_->scheduler().now(), 100.0);
    }
    backend_->synchronize(rank);  // swallows the RankLostError, drops the handle
  });
  EXPECT_EQ(cluster_->faults().recovery().stats().quiesced_ops, 1u);
  EXPECT_TRUE(weak.expired()) << "the cancelled send outlived its run";
}

TEST_P(P2pLossTest, RejoinClearsStaleQueuesSoFreshTrafficMatches) {
  fault::FaultPlan plan;
  plan.specs.push_back(fault::FaultSpec::lose_rank(1, 100.0));
  plan.specs.push_back(fault::FaultSpec::rejoin_rank(1, 500.0));
  make(plan);
  std::weak_ptr<WorkHandle> cancelled;
  std::vector<double> received(2, 0.0);
  cluster_->run_spmd(2, [&](int rank) {
    if (rank == 0) {
      // Queued at 0 -> 1, cancelled by the loss at t=100.
      cancelled = world().send(rank, payload(rank, 1.0), 1, /*async_op=*/true);
      // Posted while rank 1 is lost: doomed at match, and queued at 0 -> 1
      // and 1 -> 0 so a late counterpart would fail the same attempt.
      sleep_until(200.0);
      EXPECT_THROW(world().send(rank, payload(rank, 2.0), 1, true), RankLostError);
      Tensor stale = payload(rank, 0.0);
      EXPECT_THROW(world().recv(rank, stale, 1, true), RankLostError);
    }
    // Past the rejoin: both directions carry fresh traffic only. Rank 0
    // sends first and rank 1 receives first, because both transfers share
    // one in-order communication stream per rank.
    sleep_until(600.0);
    const int peer = 1 - rank;
    Tensor out = payload(rank, rank == 0 ? 7.0 : 9.0);
    Tensor in = payload(rank, 0.0);
    if (rank == 0) {
      world().send(rank, out, peer, /*async_op=*/false);
      world().recv(rank, in, peer, /*async_op=*/false);
    } else {
      world().recv(rank, in, peer, /*async_op=*/false);
      world().send(rank, out, peer, /*async_op=*/false);
    }
    backend_->synchronize(rank);
    received[static_cast<std::size_t>(rank)] = in.get(kElems - 1);
  });
  EXPECT_DOUBLE_EQ(received[0], 9.0);
  EXPECT_DOUBLE_EQ(received[1], 7.0);
  EXPECT_EQ(cluster_->faults().stats().rank_loss_rejections, 2u);
  EXPECT_EQ(cluster_->faults().recovery().stats().ranks_rejoined, 1u);
  EXPECT_TRUE(cancelled.expired()) << "the cancelled send outlived its run";
}

TEST_P(P2pLossTest, PostToLostPeerFailsAtMatch) {
  fault::FaultPlan plan;
  plan.specs.push_back(fault::FaultSpec::lose_rank(2, 50.0));
  make(plan);
  cluster_->run_spmd(2, [&](int rank) {
    if (rank != 0) return;
    sleep_until(100.0);
    try {
      world().send(rank, payload(rank, 1.0), 2, /*async_op=*/true);
      ADD_FAILURE() << "a send to a lost peer must fail at match";
    } catch (const RankLostError& e) {
      EXPECT_NE(std::string(e.what()).find('2'), std::string::npos) << e.what();
    }
    EXPECT_TRUE(comm_stream(rank) == nullptr || comm_stream(rank)->idle())
        << "a send doomed at match enqueues nothing";
  });
  EXPECT_EQ(cluster_->faults().stats().rank_loss_rejections, 1u);
}

TEST_P(P2pLossTest, PostDuringOutageFailsAtMatchOnBothEndpoints) {
  fault::FaultPlan plan;
  plan.specs.push_back(fault::FaultSpec::outage(GetParam(), 0.0));
  make(plan);
  cluster_->run_spmd(2, [&](int rank) {
    if (rank == 0) {
      EXPECT_THROW(world().send(rank, payload(rank, 1.0), 1, /*async_op=*/false),
                   BackendUnavailable);
    } else {
      sleep_until(10.0);  // matches the doomed send, and fails the same attempt
      Tensor in = payload(rank, 0.0);
      EXPECT_THROW(world().recv(rank, in, 0, /*async_op=*/false), BackendUnavailable);
      EXPECT_DOUBLE_EQ(in.get(0), 0.0);
    }
  });
  EXPECT_EQ(cluster_->faults().stats().outage_rejections, 1u);
}

INSTANTIATE_TEST_SUITE_P(StreamAndHost, P2pLossTest, ::testing::Values("nccl", "mv2-gdr"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param == "nccl" ? std::string("nccl")
                                                       : std::string("mv2_gdr");
                         });

}  // namespace
}  // namespace mcrdl
