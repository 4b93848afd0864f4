// Semantics of the backend layer beyond data correctness: stream- vs
// host-synchronised completion disciplines, overlap behaviour, misuse
// detection, lifecycle errors, groups, and the deadlock scenarios from
// paper Section V-D.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/backends/backend.h"

namespace mcrdl {
namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  void make_cluster(int nodes = 2) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes));
  }
  Backend* add(const std::string& name) {
    backends_.push_back(make_backend(name, cluster_.get()));
    backends_.back()->init();
    return backends_.back().get();
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

TEST_F(SemanticsTest, StreamBackendWaitDoesNotBlockHost) {
  make_cluster();
  Backend* nccl = add("nccl");
  cluster_->run_spmd([&](int rank) {
    Tensor t = Tensor::full({1024}, DType::F32, 1.0, cluster_->device(rank));
    Work w = nccl->world()->all_reduce(rank, t, ReduceOp::Sum, true);
    w->wait();  // stream-level dependency only
    // Host continues at the same virtual instant — the hallmark of the
    // fine-grained event scheme in Fig 4(b).
    EXPECT_DOUBLE_EQ(cluster_->scheduler().now(), 0.0);
    w->synchronize();  // host-level wait does advance time
    EXPECT_GT(cluster_->scheduler().now(), 0.0);
  });
}

TEST_F(SemanticsTest, HostBackendBlockingCallBlocksHost) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  cluster_->run_spmd([&](int rank) {
    Tensor t = Tensor::full({1024}, DType::F32, 1.0, cluster_->device(rank));
    mpi->world()->all_reduce(rank, t, ReduceOp::Sum, /*async_op=*/false);
    EXPECT_GT(cluster_->scheduler().now(), 0.0);  // MPI_Allreduce blocked us
  });
}

TEST_F(SemanticsTest, HostBackendAsyncLikeIallreduce) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  cluster_->run_spmd([&](int rank) {
    Tensor t = Tensor::full({1024}, DType::F32, 1.0, cluster_->device(rank));
    Work w = mpi->world()->all_reduce(rank, t, ReduceOp::Sum, /*async_op=*/true);
    EXPECT_DOUBLE_EQ(cluster_->scheduler().now(), 0.0);  // posting is free
    EXPECT_FALSE(w->test());
    w->wait();  // MPI_Wait
    EXPECT_TRUE(w->test());
    EXPECT_GT(cluster_->scheduler().now(), 0.0);
  });
}

TEST_F(SemanticsTest, CommunicationOverlapsDefaultStreamCompute) {
  // Listing 3: allreduce(x) on the comm stream overlaps y = y + y on the
  // default stream; total time ~= max(comm, compute), not the sum.
  make_cluster();
  Backend* nccl = add("nccl");
  SimTime serial_estimate = 0.0;
  {
    // Measure the collective alone first (separate cluster, same shape).
    ClusterContext probe(net::SystemConfig::lassen(2));
    auto b = make_backend("nccl", &probe);
    b->init();
    probe.run_spmd([&](int rank) {
      Tensor t = Tensor::full({1 << 18}, DType::F32, 1.0, probe.device(rank));
      b->world()->all_reduce(rank, t, ReduceOp::Sum, false);
      b->synchronize(rank);
      if (rank == 0) serial_estimate = probe.scheduler().now();
    });
  }
  cluster_->run_spmd([&](int rank) {
    Tensor x = Tensor::full({1 << 18}, DType::F32, 1.0, cluster_->device(rank));
    Work h = nccl->world()->all_reduce(rank, x, ReduceOp::Sum, true);
    // Independent compute on the default stream, as long as the collective.
    cluster_->device(rank)->compute(serial_estimate);
    h->wait();
    cluster_->device(rank)->default_stream()->synchronize();
    // Overlapped: total well under comm + compute.
    EXPECT_LT(cluster_->scheduler().now(), 1.7 * serial_estimate);
    EXPECT_GE(cluster_->scheduler().now(), serial_estimate * 0.99);
  });
}

TEST_F(SemanticsTest, SmallMessagesUseStreamPoolConcurrently) {
  make_cluster();
  auto* nccl = dynamic_cast<StreamBackend*>(add("nccl"));
  ASSERT_NE(nccl, nullptr);
  // Small messages round-robin across the pool...
  sim::Stream* s0 = nccl->comm_stream(0, 1024);
  sim::Stream* s1 = nccl->comm_stream(0, 1024);
  EXPECT_NE(s0, s1);
  // ...large messages serialise on stream 0 (bandwidth-bound; Section V-C).
  sim::Stream* big0 = nccl->comm_stream(0, 10 << 20);
  sim::Stream* big1 = nccl->comm_stream(0, 10 << 20);
  EXPECT_EQ(big0, big1);
}

TEST_F(SemanticsTest, MismatchedCollectivesAreDetected) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  EXPECT_THROW(cluster_->run_spmd([&](int rank) {
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
                 if (rank == 0) {
                   mpi->world()->all_reduce(rank, t, ReduceOp::Sum, false);
                 } else {
                   mpi->world()->broadcast(rank, t, 0, false);
                 }
               }),
               CollectiveMismatch);
}

TEST_F(SemanticsTest, MissingParticipantDeadlocks) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  EXPECT_THROW(cluster_->run_spmd([&](int rank) {
                 if (rank == 0) return;  // rank 0 never joins
                 Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
                 mpi->world()->all_reduce(rank, t, ReduceOp::Sum, false);
               }),
               DeadlockError);
}

TEST_F(SemanticsTest, NaiveMixedBackendOrderDivergenceDeadlocks) {
  // Paper Section V-D: rank 0 host-synchronises its NCCL collective before
  // entering MPI; rank 1 enters MPI first. Rank 0 waits for rank 1's NCCL
  // arrival while rank 1 waits for rank 0's MPI arrival — a circular wait
  // the virtual-time scheduler proves as a deadlock.
  make_cluster(1);  // 4 ranks on one node
  Backend* nccl = add("nccl");
  Backend* mpi = add("mv2-gdr");
  EXPECT_THROW(cluster_->run_spmd([&](int rank) {
                 Tensor x = Tensor::full({256}, DType::F32, 1.0, cluster_->device(rank));
                 Tensor y = Tensor::full({256}, DType::F32, 2.0, cluster_->device(rank));
                 if (rank == 0) {
                   Work h = nccl->world()->all_reduce(rank, x, ReduceOp::Sum, true);
                   h->synchronize();  // naive: cudaStreamSynchronize before MPI
                   mpi->world()->all_reduce(rank, y, ReduceOp::Sum, false);
                 } else {
                   mpi->world()->all_reduce(rank, y, ReduceOp::Sum, false);
                   Work h = nccl->world()->all_reduce(rank, x, ReduceOp::Sum, true);
                   h->synchronize();
                 }
               }),
               DeadlockError);
}

TEST_F(SemanticsTest, PostThenWaitMixedBackendsIsDeadlockFree) {
  // The MCR-DL discipline (Listing 4): post both backends' operations
  // asynchronously, then wait — the same divergent order now completes.
  make_cluster(1);
  Backend* nccl = add("nccl");
  Backend* mpi = add("mv2-gdr");
  cluster_->run_spmd([&](int rank) {
    Tensor x = Tensor::full({256}, DType::F32, 1.0, cluster_->device(rank));
    Tensor y = Tensor::full({256}, DType::F32, 2.0, cluster_->device(rank));
    Work h1, h2;
    if (rank == 0) {
      h1 = nccl->world()->all_reduce(rank, x, ReduceOp::Sum, true);
      h2 = mpi->world()->all_reduce(rank, y, ReduceOp::Sum, true);
    } else {
      h2 = mpi->world()->all_reduce(rank, y, ReduceOp::Sum, true);
      h1 = nccl->world()->all_reduce(rank, x, ReduceOp::Sum, true);
    }
    h1->synchronize();
    h2->synchronize();
    EXPECT_DOUBLE_EQ(x.get(0), 4.0);
    EXPECT_DOUBLE_EQ(y.get(0), 8.0);
  });
}

TEST_F(SemanticsTest, UninitializedBackendRejectsOps) {
  make_cluster();
  backends_.push_back(make_backend("nccl", cluster_.get()));
  Backend* nccl = backends_.back().get();
  cluster_->run_spmd(1, [&](int rank) {
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(nccl->world()->all_reduce(rank, t, ReduceOp::Sum, true), BackendStateError);
  });
}

TEST_F(SemanticsTest, FinalizeThenUseRejected) {
  make_cluster();
  Backend* nccl = add("nccl");
  nccl->finalize();
  cluster_->run_spmd(1, [&](int rank) {
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(nccl->world()->all_reduce(rank, t, ReduceOp::Sum, true), BackendStateError);
  });
}

TEST_F(SemanticsTest, DoubleInitRejected) {
  make_cluster();
  Backend* nccl = add("nccl");
  EXPECT_THROW(nccl->init(), Error);
}

TEST_F(SemanticsTest, SubGroupCollectivesAreIndependent) {
  make_cluster();  // 8 ranks
  Backend* mpi = add("mv2-gdr");
  Comm* low = mpi->group({0, 1, 2, 3});
  Comm* high = mpi->group({4, 5, 6, 7});
  cluster_->run_spmd([&](int rank) {
    Comm* mine = rank < 4 ? low : high;
    Tensor t = Tensor::full({2}, DType::F32, rank < 4 ? 1.0 : 10.0, cluster_->device(rank));
    mine->all_reduce(rank, t, ReduceOp::Sum, false);
    EXPECT_DOUBLE_EQ(t.get(0), rank < 4 ? 4.0 : 40.0);
  });
}

TEST_F(SemanticsTest, GroupRankMapping) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  Comm* odd = mpi->group({1, 3, 5, 7});
  EXPECT_EQ(odd->size(), 4);
  EXPECT_EQ(odd->group_rank(1), 0);
  EXPECT_EQ(odd->group_rank(7), 3);
  EXPECT_TRUE(odd->contains(3));
  EXPECT_FALSE(odd->contains(0));
  EXPECT_THROW(odd->group_rank(0), InvalidArgument);
}

// The dense index spans global ranks 0..200 for a two-member group; every
// rank outside the group, negative or past the end included, is rejected
// with the same message. Groups with a duplicate, negative or out-of-world
// rank, or no rank, are rejected when built.
TEST_F(SemanticsTest, GroupRankOnASparseGroup) {
  make_cluster(64);  // 256 ranks
  Backend* mpi = add("mv2-gdr");
  Comm* sparse = mpi->group({200, 3});
  EXPECT_EQ(sparse->size(), 2);
  EXPECT_EQ(sparse->group_rank(200), 0);
  EXPECT_EQ(sparse->group_rank(3), 1);
  EXPECT_TRUE(sparse->contains(3));
  EXPECT_TRUE(sparse->contains(200));
  for (int rank : {-1, 0, 4, 199, 201, 255, 1000}) {
    EXPECT_FALSE(sparse->contains(rank)) << rank;
    try {
      (void)sparse->group_rank(rank);
      ADD_FAILURE() << "group_rank(" << rank << ") did not throw";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("rank is not a member of this communicator"),
                std::string::npos)
          << e.what();
    }
  }
  auto construction_error = [&](const std::vector<int>& ranks) -> std::string {
    try {
      mpi->group(ranks);
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(construction_error({3, 200, 3}).find("duplicate rank in communicator group"),
            std::string::npos);
  EXPECT_NE(construction_error({-1, 3}).find("negative rank in communicator group"),
            std::string::npos);
  EXPECT_NE(construction_error({3, 256}).find("rank out of range for communicator group"),
            std::string::npos);
  EXPECT_NE(construction_error({}).find("communicator needs at least one rank"),
            std::string::npos);
}

TEST_F(SemanticsTest, GroupsAreCached) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  EXPECT_EQ(mpi->group({0, 1}), mpi->group({0, 1}));
  EXPECT_NE(mpi->group({0, 1}), mpi->group({0, 2}));
}

TEST_F(SemanticsTest, DuplicateRanksInGroupRejected) {
  make_cluster();
  Backend* mpi = add("mv2-gdr");
  EXPECT_THROW(mpi->group({0, 0, 1}), InvalidArgument);
}

TEST_F(SemanticsTest, LargerCollectivesTakeLongerInVirtualTime) {
  make_cluster();
  Backend* nccl = add("nccl");
  SimTime small_time = 0.0, large_time = 0.0;
  cluster_->run_spmd([&](int rank) {
    Tensor small = Tensor::phantom({1 << 10}, DType::F32, cluster_->device(rank));
    Tensor large = Tensor::phantom({1 << 22}, DType::F32, cluster_->device(rank));
    Work ws = nccl->world()->all_reduce(rank, small, ReduceOp::Sum, true);
    ws->synchronize();
    if (rank == 0) small_time = cluster_->scheduler().now();
    Work wl = nccl->world()->all_reduce(rank, large, ReduceOp::Sum, true);
    wl->synchronize();
    if (rank == 0) large_time = cluster_->scheduler().now() - small_time;
  });
  EXPECT_GT(large_time, small_time);
}

TEST_F(SemanticsTest, SynchronizeDrainsAllOutstandingWork) {
  make_cluster();
  Backend* nccl = add("nccl");
  cluster_->run_spmd([&](int rank) {
    std::vector<Tensor> tensors;
    for (int i = 0; i < 5; ++i) {
      tensors.push_back(Tensor::full({64}, DType::F32, 1.0, cluster_->device(rank)));
      nccl->world()->all_reduce(rank, tensors.back(), ReduceOp::Sum, true);
    }
    nccl->synchronize(rank);
    for (auto& t : tensors) EXPECT_DOUBLE_EQ(t.get(0), 8.0);
  });
}

TEST_F(SemanticsTest, UnknownBackendNameRejected) {
  make_cluster();
  EXPECT_THROW(make_backend("ucx", cluster_.get()), InvalidArgument);
  // The paper's four evaluated backends, plus the gloo extensibility demo.
  EXPECT_EQ(available_backend_names().size(), 4u);
  EXPECT_NE(make_backend("gloo", cluster_.get()), nullptr);
}

}  // namespace
}  // namespace mcrdl
