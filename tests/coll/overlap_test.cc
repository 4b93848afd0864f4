// The overlap scheduler's contract: chunking exists only when overlap is on,
// interleaved chunk-chains finish a large composite in less virtual time
// than one serial chain, and drain() retires every live chain.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

McrDlOptions coll_opts(bool overlap, int chunks = 4) {
  McrDlOptions opts;
  opts.coll.enabled = true;
  opts.coll.overlap = overlap;
  opts.coll.chunks = chunks;
  return opts;
}

// One async hier allreduce of `elems` floats per rank, waited on; returns
// the cluster's final virtual time (per-rank values are checked inline).
SimTime run_one_composite(bool overlap, int elems) {
  ClusterContext cluster(net::SystemConfig::lassen(2));
  McrDl mcr(&cluster, coll_opts(overlap));
  mcr.init({"nccl", "mv2-gdr"});
  const double expect = static_cast<double>(cluster.world_size()) *
                        (cluster.world_size() + 1) / 2.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({elems}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    Work w = api.all_reduce("hier:nccl+mv2-gdr", t, ReduceOp::Sum, /*async_op=*/true);
    w->wait();
    api.synchronize();
    EXPECT_DOUBLE_EQ(t.get(0), expect);
  });
  return cluster.scheduler().now();
}

TEST(OverlapScheduler, ChunksGateOnOverlapFlag) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl off(&cluster, coll_opts(/*overlap=*/false, /*chunks=*/4));
  off.init({"nccl"});
  ASSERT_TRUE(off.coll_enabled());
  EXPECT_FALSE(off.overlap_scheduler()->overlap_enabled());
  EXPECT_EQ(off.overlap_scheduler()->chunks(), 1);
  off.finalize();

  McrDl on(&cluster, coll_opts(/*overlap=*/true, /*chunks=*/4));
  on.init({"nccl"});
  EXPECT_TRUE(on.overlap_scheduler()->overlap_enabled());
  EXPECT_EQ(on.overlap_scheduler()->chunks(), 4);
}

TEST(OverlapScheduler, InterleavedChunksBeatSerialChain) {
  // Large enough that the per-chunk bandwidth term dominates the extra
  // per-sub-op latencies: pipelining one chunk's leader hop under another's
  // NVLink reduce must strictly shorten the critical path.
  constexpr int kElems = 1 << 20;
  const SimTime serial = run_one_composite(/*overlap=*/false, kElems);
  const SimTime overlapped = run_one_composite(/*overlap=*/true, kElems);
  EXPECT_LT(overlapped, serial)
      << "overlap=" << overlapped << "us vs serial=" << serial << "us";
}

TEST(OverlapScheduler, SynchronizeDrainsEveryLiveChain) {
  ClusterContext cluster(net::SystemConfig::lassen(2));
  McrDl mcr(&cluster, coll_opts(/*overlap=*/true));
  mcr.init({"nccl", "mv2-gdr"});
  const double expect = static_cast<double>(cluster.world_size()) *
                        (cluster.world_size() + 1) / 2.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor a = Tensor::full({512}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    Tensor b = Tensor::full({512}, DType::F32, static_cast<double>(rank + 1),
                            cluster.device(rank));
    // Two independent async composites, never waited on individually:
    // synchronize() must drive both chains (and their chunks) to completion.
    api.all_reduce("hier:nccl+mv2-gdr", a, ReduceOp::Sum, /*async_op=*/true);
    api.all_reduce("rsag:mv2-gdr", b, ReduceOp::Sum, /*async_op=*/true);
    api.synchronize();
    EXPECT_DOUBLE_EQ(a.get(0), expect);
    EXPECT_DOUBLE_EQ(b.get(0), expect);
    EXPECT_EQ(mcr.overlap_scheduler()->live_chains(rank), 0u)
        << "synchronize left live chains registered on rank " << rank;
  });
}

}  // namespace
}  // namespace mcrdl
