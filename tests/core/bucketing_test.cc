// Tests for the generalized gradient-bucketing layer (DESIGN.md §14):
// admission beyond AllReduce (Reduce, Broadcast), slice-back ordering and
// data correctness, timeout-vs-size flush races, and the flush-timer
// cancellation that keeps the scheduler's event queue from growing without
// bound on bucket-heavy workloads.
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

std::string canonical_records(const CommLogger& logger) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const CommRecord& r : logger.records()) {
    os << r.rank << '|' << op_name(r.op) << '|' << r.backend << '|' << r.bytes << '|' << r.start
       << '|' << r.end << '|' << (r.fused ? 'F' : '.') << '\n';
  }
  return os.str();
}

FusionConfig bucket_all_config() {
  FusionConfig cfg;
  cfg.enabled = true;
  cfg.buffer_bytes = 1 << 20;   // flush by timeout/sync, not size
  cfg.flush_timeout_us = 1e6;   // effectively never
  cfg.max_tensor_bytes = 1 << 20;
  cfg.ops = {OpType::AllReduce, OpType::Reduce, OpType::Broadcast};
  return cfg;
}

// A small mixed workload of bucketable collectives; returns its trace.
std::string run_mixed_workload(const FusionConfig& fusion) {
  McrDlOptions opts;
  opts.fusion = fusion;
  opts.logging_enabled = true;
  ClusterContext cluster(net::SystemConfig::lassen(1));  // 4 ranks
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < 4; ++i) {
      Tensor t = Tensor::full({8}, DType::F32, i + 1.0, dev);
      api.all_reduce("nccl", t, ReduceOp::Sum, /*async_op=*/true);
    }
    Tensor r = Tensor::full({8}, DType::F32, 2.0, dev);
    api.reduce("nccl", r, /*root=*/1, ReduceOp::Sum, /*async_op=*/true);
    Tensor b = rank == 0 ? Tensor::full({8}, DType::F32, 7.0, dev)
                         : Tensor::zeros({8}, DType::F32, dev);
    api.broadcast("nccl", b, /*root=*/0, /*async_op=*/true);
    api.synchronize();
  });
  return canonical_records(mcr.logger());
}

// With bucketing disabled, a config that *lists* the extra bucketable ops
// must be byte-identical to the default config: admission is dead code until
// `enabled` flips.
TEST(Bucketing, DisabledBucketingIsByteIdenticalToDefault) {
  FusionConfig listed = bucket_all_config();
  listed.enabled = false;
  FusionConfig dflt;  // enabled=false, ops={AllReduce}
  EXPECT_EQ(run_mixed_workload(listed), run_mixed_workload(dflt));
}

// Enabled bucketing of every admitted op: each tensor must get exactly its
// own slice back, in submission order, with correct collective semantics —
// AllReduce sums across ranks, Reduce sums at the root and leaves non-root
// inputs untouched (as the unbucketed op would), Broadcast propagates the
// root's distinct per-tensor values.
TEST(Bucketing, SliceBackOrderingAndSemanticsPerOp) {
  McrDlOptions opts;
  opts.fusion = bucket_all_config();
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);

    std::vector<Tensor> ar, rd, bc;
    for (int i = 0; i < 6; ++i) {
      ar.push_back(Tensor::full({4}, DType::F32, rank + 10.0 * i, dev));
      api.all_reduce("nccl", ar.back(), ReduceOp::Sum, true);
    }
    for (int i = 0; i < 6; ++i) {
      rd.push_back(Tensor::full({4}, DType::F32, 1.0 + i, dev));
      api.reduce("nccl", rd.back(), /*root=*/2, ReduceOp::Sum, true);
    }
    for (int i = 0; i < 6; ++i) {
      bc.push_back(rank == 1 ? Tensor::full({4}, DType::F32, 100.0 + i, dev)
                             : Tensor::zeros({4}, DType::F32, dev));
      api.broadcast("nccl", bc.back(), /*root=*/1, true);
    }
    api.synchronize();

    const int n = cluster.world_size();
    for (int i = 0; i < 6; ++i) {
      // sum over ranks of (rank + 10i) = (0+1+2+3) + n*10i
      EXPECT_DOUBLE_EQ(ar[static_cast<std::size_t>(i)].get(0), 6.0 + n * 10.0 * i)
          << "all_reduce slice " << i;
      if (rank == 2) {
        EXPECT_DOUBLE_EQ(rd[static_cast<std::size_t>(i)].get(0), n * (1.0 + i))
            << "reduce slice " << i << " at root";
      } else {
        EXPECT_DOUBLE_EQ(rd[static_cast<std::size_t>(i)].get(0), 1.0 + i)
            << "reduce slice " << i << " must stay the local input off-root";
      }
      EXPECT_DOUBLE_EQ(bc[static_cast<std::size_t>(i)].get(3), 100.0 + i)
          << "broadcast slice " << i;
    }
  });
  // One bucket per (rank, op[, root]): 4 ranks x 3 ops = 12 flushes, and
  // every tensor went through a bucket.
  EXPECT_EQ(mcr.fusion().flush_count(), 12);
  EXPECT_EQ(mcr.fusion().fused_tensor_count(), 4 * 18);
}

// Rooted ops with different roots must never coalesce into one bucket: the
// fused collective is a single issue with a single root.
TEST(Bucketing, DistinctRootsNeverCoalesce) {
  McrDlOptions opts;
  opts.fusion = bucket_all_config();
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    std::vector<Tensor> bcs;
    for (int root = 0; root < 4; ++root) {
      bcs.push_back(rank == root ? Tensor::full({4}, DType::F32, root + 50.0, dev)
                                 : Tensor::zeros({4}, DType::F32, dev));
      api.broadcast("nccl", bcs.back(), root, true);
    }
    api.synchronize();
    for (int root = 0; root < 4; ++root) {
      EXPECT_DOUBLE_EQ(bcs[static_cast<std::size_t>(root)].get(0), root + 50.0);
    }
  });
  // 4 roots x 4 ranks: sixteen separate buckets.
  EXPECT_EQ(mcr.fusion().flush_count(), 16);
}

// Timeout-vs-size race: the buffer fills (size flush) strictly before the
// armed timeout's deadline. The timeout must neither flush a second time nor
// leave its closure in the queue; a fresh batch after the flush re-arms its
// own timer.
TEST(Bucketing, SizeFlushBeatsTimeoutAndCancelsIt) {
  McrDlOptions opts;
  opts.fusion.enabled = true;
  opts.fusion.buffer_bytes = 64;       // 4 x 4 F32 fills it
  opts.fusion.flush_timeout_us = 40.0;
  opts.fusion.max_tensor_bytes = 1 << 20;
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    std::vector<Tensor> ts;
    for (int i = 0; i < 4; ++i) {
      ts.push_back(Tensor::full({4}, DType::F32, i + 1.0, dev));
      api.all_reduce("nccl", ts.back(), ReduceOp::Sum, true);
    }
    // Sleep past the (cancelled) timer's deadline: a stale or re-fired
    // timeout flush would bump timeout_flush_count_.
    cluster.scheduler().sleep_for(200.0);
    api.synchronize();
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(ts[static_cast<std::size_t>(i)].get(0), 4.0 * (i + 1.0));
    }
  });
  EXPECT_EQ(mcr.fusion().flush_count(), 4);
  EXPECT_EQ(mcr.fusion().timeout_flush_count(), 0)
      << "size flush must cancel the armed timeout";
}

// The reverse race: the timeout fires first (buffer never fills); tensors
// submitted after the timeout flush start a fresh batch with its own timer.
TEST(Bucketing, TimeoutFlushThenFreshBatch) {
  McrDlOptions opts;
  opts.fusion.enabled = true;
  opts.fusion.buffer_bytes = 1 << 24;  // never fills
  opts.fusion.flush_timeout_us = 25.0;
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    Tensor a = Tensor::full({4}, DType::F32, 1.0, dev);
    Work wa = api.all_reduce("nccl", a, ReduceOp::Sum, true);
    cluster.scheduler().sleep_for(500.0);  // timeout flushes batch #1
    EXPECT_TRUE(wa->test());
    Tensor b = Tensor::full({4}, DType::F32, 2.0, dev);
    api.all_reduce("nccl", b, ReduceOp::Sum, true);
    api.synchronize();
    EXPECT_DOUBLE_EQ(a.get(0), 4.0);
    EXPECT_DOUBLE_EQ(b.get(0), 8.0);
  });
  EXPECT_EQ(mcr.fusion().flush_count(), 8);  // 2 per rank
  EXPECT_GE(mcr.fusion().timeout_flush_count(), 4);
}

// Regression for the flush-timer leak: every size-triggered flush used to
// strand its armed timeout closure in the scheduler queue until the distant
// deadline. With cancellation in place, a bucket-heavy workload must leave
// the event queue empty once its ops complete.
TEST(Bucketing, SizeFlushesDoNotAccumulateSchedulerEvents) {
  McrDlOptions opts;
  opts.fusion.enabled = true;
  opts.fusion.buffer_bytes = 64;
  opts.fusion.flush_timeout_us = 1e9;  // a leaked timer would linger ~forever
  opts.fusion.max_tensor_bytes = 1 << 20;
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int round = 0; round < 64; ++round) {
      std::vector<Tensor> ts;
      for (int i = 0; i < 4; ++i) {
        ts.push_back(Tensor::full({4}, DType::F32, 1.0, dev));
        api.all_reduce("nccl", ts.back(), ReduceOp::Sum, true);
      }
      api.synchronize();
    }
    api.barrier("nccl");
    api.synchronize();
    // 64 size flushes/rank are behind us. The leak this guards against
    // strands one timer per flush at the ~forever deadline, so a tight
    // bound (a stray in-flight barrier event is tolerable; hundreds of
    // stranded timers are not) distinguishes fixed from broken.
    EXPECT_LE(cluster.scheduler().pending_events(), 8u)
        << "leaked flush timers in the event queue";
  });
  EXPECT_GE(mcr.fusion().flush_count(), 64 * 4);
}

// complete_time() on a Work whose batch has not flushed has no completion
// instant; it must refuse loudly instead of returning a valid-looking 0.0.
TEST(Bucketing, CompleteTimeBeforeFlushThrows) {
  McrDlOptions opts;
  opts.fusion.enabled = true;
  opts.fusion.buffer_bytes = 1 << 24;
  opts.fusion.flush_timeout_us = 1e6;
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
    Work w = api.all_reduce("nccl", t, ReduceOp::Sum, true);
    EXPECT_FALSE(w->test());
    EXPECT_THROW(w->complete_time(), Error);
    w->wait();           // forces the flush: complete_time() may be queried now
    api.synchronize();   // drains the stream so the completion instant is set
    EXPECT_GT(w->complete_time(), 0.0);
  });
}

// Ops outside the configured set must bypass buckets entirely even when
// bucketing is enabled — and set_config rejects unbucketable ops.
TEST(Bucketing, AdmissionRespectsConfiguredOps) {
  McrDlOptions opts;
  opts.fusion = bucket_all_config();
  opts.fusion.ops = {OpType::Reduce};  // only Reduce is bucketed
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  EXPECT_TRUE(mcr.fusion().admits(OpType::Reduce));
  EXPECT_FALSE(mcr.fusion().admits(OpType::AllReduce));
  EXPECT_FALSE(mcr.fusion().admits(OpType::Broadcast));
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({4}, DType::F32, 1.0, cluster.device(rank));
    api.all_reduce("nccl", t, ReduceOp::Sum, true);  // must bypass the bucket
    api.synchronize();
    EXPECT_DOUBLE_EQ(t.get(0), 4.0);
  });
  EXPECT_EQ(mcr.fusion().fused_tensor_count(), 0);

  FusionConfig bad;
  bad.ops = {OpType::AllGather};  // layout-coupled: not bucketable
  EXPECT_THROW(mcr.fusion().set_config(bad), InvalidArgument);
}

}  // namespace
}  // namespace mcrdl
