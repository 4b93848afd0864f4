// End-to-end tests of the public MCR-DL API (paper Listing 1): lifecycle,
// every operation through the facade, emulation of non-native ops on NCCL,
// mixed-backend programs, sub-groups, and "auto" dispatch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  void make(int nodes = 2, McrDlOptions opts = {}) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes));
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
  }
  int world() const { return cluster_->world_size(); }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
};

TEST_F(ApiTest, InitFinalizeLifecycle) {
  make();
  EXPECT_FALSE(mcr_->initialized());
  mcr_->init({"nccl", "mv2-gdr"});
  EXPECT_TRUE(mcr_->initialized());
  EXPECT_EQ(mcr_->get_backends(), (std::vector<std::string>{"nccl", "mv2-gdr"}));
  EXPECT_TRUE(mcr_->has_backend("nccl"));
  EXPECT_FALSE(mcr_->has_backend("ompi"));
  EXPECT_THROW(mcr_->backend("ompi"), InvalidArgument);
  mcr_->finalize();
  EXPECT_FALSE(mcr_->initialized());
}

TEST_F(ApiTest, DuplicateBackendInInitRejected) {
  make();
  EXPECT_THROW(mcr_->init({"nccl", "nccl"}), InvalidArgument);
}

TEST_F(ApiTest, GetRankAndSize) {
  make();
  mcr_->init({"nccl"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    EXPECT_EQ(api.get_rank("nccl"), rank);
    EXPECT_EQ(api.get_size("nccl"), world());
  });
}

// Table I's MCR-DL column, checked against the implementation: every
// Listing-1 operation runs through the facade on every backend, natively or
// transparently emulated. Stream backends (nccl, sccl) complete on the device,
// so each read of a result follows a synchronize.
class ApiAllOpsTest : public ApiTest, public ::testing::WithParamInterface<std::string> {};

TEST_P(ApiAllOpsTest, ListingOneOpsThroughFacade) {
  const std::string backend = GetParam();
  make();
  mcr_->init({backend});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    sim::Device* dev = cluster_->device(rank);

    Tensor ar = Tensor::full({4}, DType::F32, 1.0, dev);
    api.all_reduce(backend, ar);
    api.synchronize();
    EXPECT_DOUBLE_EQ(ar.get(0), n);

    Tensor bc = rank == 0 ? Tensor::full({2}, DType::F32, 5.0, dev)
                          : Tensor::zeros({2}, DType::F32, dev);
    api.broadcast(backend, bc, 0);
    api.synchronize();
    EXPECT_DOUBLE_EQ(bc.get(1), 5.0);

    Tensor rd = Tensor::full({4}, DType::F32, 1.0, dev);
    api.reduce(backend, rd, 0);
    api.synchronize();
    if (rank == 0) {
      EXPECT_DOUBLE_EQ(rd.get(0), n);
    }

    Tensor in = Tensor::full({1}, DType::F32, rank * 1.0, dev);
    Tensor out = Tensor::zeros({n}, DType::F32, dev);
    api.all_gather(backend, out, in);
    api.synchronize();
    EXPECT_DOUBLE_EQ(out.get(n - 1), n - 1.0);

    Tensor rs_in = Tensor::arange(n, DType::F32, dev);
    Tensor rs_out = Tensor::zeros({1}, DType::F32, dev);
    api.reduce_scatter(backend, rs_out, rs_in);
    api.synchronize();
    EXPECT_DOUBLE_EQ(rs_out.get(0), static_cast<double>(n) * rank);

    Tensor a2a_in = Tensor::full({n}, DType::F32, rank * 1.0, dev);
    Tensor a2a_out = Tensor::zeros({n}, DType::F32, dev);
    api.all_to_all_single(backend, a2a_out, a2a_in);
    api.synchronize();
    EXPECT_DOUBLE_EQ(a2a_out.get(n - 1), n - 1.0);

    Tensor g_out = rank == 0 ? Tensor::zeros({n}, DType::F32, dev) : Tensor();
    api.gather(backend, g_out, in, 0);
    api.synchronize();
    if (rank == 0) {
      EXPECT_DOUBLE_EQ(g_out.get(n - 1), n - 1.0);
    }

    Tensor s_in = rank == 0 ? Tensor::arange(n, DType::F32, dev) : Tensor();
    Tensor s_out = Tensor::zeros({1}, DType::F32, dev);
    api.scatter(backend, s_out, s_in, 0);
    api.synchronize();
    EXPECT_DOUBLE_EQ(s_out.get(0), rank);

    std::vector<int> counts(static_cast<std::size_t>(n), 1), displs;
    for (int r = 0; r < n; ++r) displs.push_back(r);
    Tensor v_out = Tensor::zeros({n}, DType::F32, dev);
    api.all_gatherv(backend, v_out, in, counts, displs);
    api.synchronize();
    EXPECT_DOUBLE_EQ(v_out.get(n - 1), n - 1.0);

    Tensor gv_out = rank == 0 ? Tensor::zeros({n}, DType::F32, dev) : Tensor();
    api.gatherv(backend, gv_out, in, 0, counts, displs);
    api.synchronize();
    if (rank == 0) {
      EXPECT_DOUBLE_EQ(gv_out.get(n - 1), n - 1.0);
    }

    Tensor sv_out = Tensor::zeros({1}, DType::F32, dev);
    api.scatterv(backend, sv_out, rank == 0 ? Tensor::arange(n, DType::F32, dev) : Tensor(), 0,
                 counts, displs);
    api.synchronize();
    EXPECT_DOUBLE_EQ(sv_out.get(0), rank);

    Tensor av_in = Tensor::arange(n, DType::F32, dev);
    Tensor av_out = Tensor::zeros({n}, DType::F32, dev);
    api.all_to_allv(backend, av_out, av_in, counts, displs, counts, displs);
    api.synchronize();
    EXPECT_DOUBLE_EQ(av_out.get(0), rank);

    // TensorList form: input block j has j + 1 distinct elements and lands as
    // rank j's output block from this rank.
    const auto a2a_value = [](int src, int dst, int e) { return src * 100.0 + dst * 10.0 + e; };
    TensorList list_in, list_out;
    for (int j = 0; j < n; ++j) {
      list_in.push_back(Tensor::zeros({j + 1}, DType::F32, dev));
      for (int e = 0; e <= j; ++e) list_in.back().set(e, a2a_value(rank, j, e));
      list_out.push_back(Tensor::zeros({rank + 1}, DType::F32, dev));
    }
    api.all_to_all(backend, list_out, list_in);
    api.synchronize();
    for (int src = 0; src < n; ++src) {
      for (int e = 0; e <= rank; ++e) {
        EXPECT_DOUBLE_EQ(list_out[static_cast<std::size_t>(src)].get(e), a2a_value(src, rank, e))
            << "block from rank " << src << ", element " << e;
      }
    }

    api.barrier(backend);
    if (rank == 0) {
      api.send(backend, Tensor::arange(3, DType::F32, dev), 1);
    } else if (rank == 1) {
      Tensor p = Tensor::zeros({3}, DType::F32, dev);
      api.recv(backend, p, 0);
      api.synchronize();
      EXPECT_DOUBLE_EQ(p.get(2), 2.0);
    }
    api.synchronize();
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ApiAllOpsTest,
                         ::testing::ValuesIn(available_backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(ApiTest, NcclGatherIsEmulatedTransparently) {
  make();
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor in = Tensor::full({2}, DType::F32, rank + 1.0, cluster_->device(rank));
    Tensor out =
        rank == 0 ? Tensor::zeros({2 * n}, DType::F32, cluster_->device(rank)) : Tensor();
    api.gather("nccl", out, in, /*root=*/0);
    if (rank == 0) {
      for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(out.get(2 * r), r + 1.0);
    }
  });
}

TEST_F(ApiTest, NcclScatterIsEmulated) {
  make();
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor in = rank == 0 ? Tensor::arange(n, DType::F32, cluster_->device(rank)) : Tensor();
    Tensor out = Tensor::zeros({1}, DType::F32, cluster_->device(rank));
    api.scatter("nccl", out, in, 0);
    EXPECT_DOUBLE_EQ(out.get(0), rank);
  });
}

TEST_F(ApiTest, NcclGathervIsEmulatedViaP2p) {
  make();
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor in = Tensor::full({rank + 1}, DType::F32, rank * 1.0, cluster_->device(rank));
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    Tensor out =
        rank == 0 ? Tensor::zeros({total}, DType::F32, cluster_->device(rank)) : Tensor();
    api.gatherv("nccl", out, in, 0, counts, displs);
    api.synchronize();
    if (rank == 0) {
      EXPECT_DOUBLE_EQ(out.get(0), 0.0);
      EXPECT_DOUBLE_EQ(out.get(total - 1), n - 1.0);
    }
  });
}

TEST_F(ApiTest, NcclScattervIsEmulated) {
  make();
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    std::vector<int> counts(static_cast<std::size_t>(n), 2), displs;
    for (int r = 0; r < n; ++r) displs.push_back(2 * r);
    Tensor in = rank == 1 ? Tensor::arange(2 * n, DType::F32, cluster_->device(rank)) : Tensor();
    Tensor out = Tensor::zeros({2}, DType::F32, cluster_->device(rank));
    api.scatterv("nccl", out, in, 1, counts, displs);
    api.synchronize();
    EXPECT_DOUBLE_EQ(out.get(0), 2.0 * rank);
    EXPECT_DOUBLE_EQ(out.get(1), 2.0 * rank + 1);
  });
}

TEST_F(ApiTest, NcclAllGathervIsEmulatedViaPadding) {
  make();
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor in = Tensor::full({rank + 1}, DType::F32, rank * 1.0, cluster_->device(rank));
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    Tensor out = Tensor::zeros({total}, DType::F32, cluster_->device(rank));
    api.all_gatherv("nccl", out, in, counts, displs);
    int pos = 0;
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k <= r; ++k) EXPECT_DOUBLE_EQ(out.get(pos++), r);
    }
  });
}

TEST_F(ApiTest, NcclAllToAllvIsEmulatedViaPaddedExchange) {
  make(1);  // 4 ranks
  mcr_->init({"nccl"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    // Rank r sends (d+1) elements of value r*100+d to destination d.
    std::vector<int> scounts, sdispls, rcounts, rdispls;
    int stotal = 0, rtotal = 0;
    for (int d = 0; d < n; ++d) {
      scounts.push_back(d + 1);
      sdispls.push_back(stotal);
      stotal += d + 1;
      rcounts.push_back(rank + 1);
      rdispls.push_back(rtotal);
      rtotal += rank + 1;
    }
    Tensor in = Tensor::zeros({stotal}, DType::F32, cluster_->device(rank));
    for (int d = 0; d < n; ++d) {
      for (int k = 0; k < scounts[static_cast<std::size_t>(d)]; ++k) {
        in.set(sdispls[static_cast<std::size_t>(d)] + k, rank * 100.0 + d);
      }
    }
    Tensor out = Tensor::zeros({rtotal}, DType::F32, cluster_->device(rank));
    api.all_to_allv("nccl", out, in, scounts, sdispls, rcounts, rdispls);
    for (int s = 0; s < n; ++s) {
      for (int k = 0; k <= rank; ++k) {
        EXPECT_DOUBLE_EQ(out.get(rdispls[static_cast<std::size_t>(s)] + k), s * 100.0 + rank);
      }
    }
  });
}

TEST_F(ApiTest, MixedBackendListing4Program) {
  // The paper's Listing 4: two allreduces on different backends in flight.
  make();
  mcr_->init({"nccl", "mv2-gdr"});
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor x = Tensor::full({64}, DType::F32, 1.0, cluster_->device(rank));
    Tensor y = Tensor::full({64}, DType::F32, 2.0, cluster_->device(rank));
    Work h1 = api.all_reduce("nccl", x, ReduceOp::Sum, true);
    Work h2 = api.all_reduce("mv2-gdr", y, ReduceOp::Sum, true);
    h1->synchronize();
    h2->synchronize();
    EXPECT_DOUBLE_EQ(x.get(0), n);
    EXPECT_DOUBLE_EQ(y.get(0), 2.0 * n);
  });
}

TEST_F(ApiTest, SubGroupApi) {
  make();  // 8 ranks
  mcr_->init({"mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    std::vector<int> my_group = rank < 4 ? std::vector<int>{0, 1, 2, 3}
                                         : std::vector<int>{4, 5, 6, 7};
    Api grp = api.group(my_group);
    EXPECT_EQ(grp.get_size("mv2-gdr"), 4);
    Tensor t = Tensor::full({2}, DType::F32, 1.0, cluster_->device(rank));
    grp.all_reduce("mv2-gdr", t);
    EXPECT_DOUBLE_EQ(t.get(0), 4.0);
  });
}

TEST_F(ApiTest, AutoWithoutTableThrows) {
  make();
  mcr_->init({"nccl"});
  cluster_->run_spmd(1, [&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(api.all_reduce("auto", t), InvalidArgument);
  });
}

TEST_F(ApiTest, AutoDispatchesThroughTuningTable) {
  make();
  mcr_->init({"nccl", "mv2-gdr"});
  TuningTable table;
  table.set(OpType::AllReduce, world(), 1024, "mv2-gdr");
  table.set(OpType::AllReduce, world(), 1 << 26, "nccl");
  mcr_->set_tuning_table(std::move(table));
  const int n = world();
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    // Small message -> mv2-gdr bucket; large message -> nccl bucket. Both
    // must produce correct results; log records prove the routing.
    Tensor small = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    Work ws = api.all_reduce("auto", small, ReduceOp::Sum, true);
    Tensor large = Tensor::full({1 << 16}, DType::F32, 1.0, cluster_->device(rank));
    Work wl = api.all_reduce("auto", large, ReduceOp::Sum, true);
    ws->synchronize();
    wl->synchronize();
    EXPECT_EQ(ws->backend_name, "mv2-gdr");
    EXPECT_EQ(wl->backend_name, "nccl");
    EXPECT_DOUBLE_EQ(small.get(0), n);
    EXPECT_DOUBLE_EQ(large.get(0), n);
  });
}

TEST_F(ApiTest, AutoFallsBackWhenWinnerNotInitialised) {
  make();
  mcr_->init({"nccl"});
  TuningTable table;
  table.set(OpType::AllReduce, world(), 1 << 26, "sccl");  // not initialised
  mcr_->set_tuning_table(std::move(table));
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    Work w = api.all_reduce("auto", t, ReduceOp::Sum, true);
    w->synchronize();
    EXPECT_EQ(w->backend_name, "nccl");
  });
}

TEST_F(ApiTest, PerCallOverheadAdvancesHostClock) {
  McrDlOptions opts;
  opts.per_call_overhead_us = 3.0;
  make(2, opts);
  mcr_->init({"nccl"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::phantom({256}, DType::F32, cluster_->device(rank));
    const SimTime before = cluster_->scheduler().now();
    api.all_reduce("nccl", t, ReduceOp::Sum, true);
    EXPECT_GE(cluster_->scheduler().now() - before, 3.0);
    api.synchronize();
  });
}

TEST_F(ApiTest, LoggerRecordsRoutedOperations) {
  McrDlOptions opts;
  opts.logging_enabled = true;
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({256}, DType::F32, 1.0, cluster_->device(rank));
    api.all_reduce("nccl", t);
    Tensor o = Tensor::zeros({256}, DType::F32, cluster_->device(rank));
    api.all_to_all_single("mv2-gdr", o, t);
    api.synchronize();
  });
  EXPECT_EQ(mcr_->logger().op_count(0), 2);
  auto by_backend = mcr_->logger().time_by_backend(0);
  EXPECT_TRUE(by_backend.count("nccl"));
  EXPECT_TRUE(by_backend.count("mv2-gdr"));
  EXPECT_GT(mcr_->logger().comm_time(0), 0.0);
}

}  // namespace
}  // namespace mcrdl
