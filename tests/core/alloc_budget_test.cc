// Steady-state allocation budget of the dispatch path (DESIGN.md §14).
//
// This binary links the counting operator new/delete of
// tests/common/counting_new.cc and measures heap allocations per dispatched operation for a
// fixed 8-rank phantom mix of async all_reduce / all_to_all_single /
// broadcast on "auto", whose tuning table sends small messages to mv2-gdr
// and large ones to nccl, with a synchronize() every 64 ops. The scenario
// runs twice on fresh runtimes, with a short and a long op program; the
// difference between the two counts cancels set-up and warm-up, leaving
// the amortised per-op cost. The bound may be tightened, never loosened.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/mcr_dl.h"
#include "tests/common/counting_new.h"

namespace mcrdl {
namespace {

constexpr int kWorld = 8;
constexpr int kOpsPerWindow = 64;
constexpr int kSizes = 11;  // 256 B .. 256 KiB
// Messages up to this size route to mv2-gdr, larger ones to nccl.
constexpr std::size_t kCrossover = 8 << 10;
// Amortised heap allocations per dispatched op, summed over every layer.
constexpr double kBudgetPerOp = 3.0;

std::size_t bytes_of(int size) { return std::size_t{256} << size; }

TuningTable crossover_table() {
  TuningTable table;
  for (OpType op : {OpType::AllReduce, OpType::AllToAllSingle, OpType::Broadcast}) {
    table.set(op, kWorld, kCrossover, "mv2-gdr");
    table.set(op, kWorld, bytes_of(kSizes - 1), "nccl");
  }
  return table;
}

// Heap allocations made by one complete run (set-up, `windows` windows of
// kOpsPerWindow ops on every rank, teardown).
std::uint64_t allocations_for(int windows, bool logger) {
  const std::uint64_t before = heap_allocations();
  {
    ClusterContext cluster(net::SystemConfig::lassen(kWorld / 4));
    McrDl mcr(&cluster);
    mcr.init({"nccl", "mv2-gdr"});
    mcr.set_tuning_table(crossover_table());
    mcr.logger().set_enabled(logger);
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      sim::Device* dev = cluster.device(rank);
      std::vector<Tensor> in, out;
      for (int s = 0; s < kSizes; ++s) {
        const auto elems = static_cast<std::int64_t>(bytes_of(s) / 4);
        in.push_back(Tensor::phantom({elems}, DType::F32, dev));
        out.push_back(Tensor::phantom({elems}, DType::F32, dev));
      }
      // The same op program on every rank: op type and size advance with
      // co-prime strides so every (op, size) pair occurs.
      for (int i = 0; i < windows * kOpsPerWindow; ++i) {
        const auto s = static_cast<std::size_t>(i % kSizes);
        switch (i % 3) {
          case 0:
            api.all_reduce("auto", in[s], ReduceOp::Sum, true);
            break;
          case 1:
            api.all_to_all_single("auto", out[s], in[s], true);
            break;
          default:
            api.broadcast("auto", in[s], i % kWorld, true);
            break;
        }
        if ((i + 1) % kOpsPerWindow == 0) api.synchronize();
      }
    });
  }
  return heap_allocations() - before;
}

double allocations_per_op(bool logger) {
  constexpr int kShort = 8;
  constexpr int kLong = 24;
  const std::uint64_t shorter = allocations_for(kShort, logger);
  const std::uint64_t longer = allocations_for(kLong, logger);
  const double ops = static_cast<double>((kLong - kShort) * kOpsPerWindow * kWorld);
  return static_cast<double>(longer - shorter) / ops;
}

TEST(AllocBudget, SteadyStateDispatchLoggerOff) {
  const double per_op = allocations_per_op(/*logger=*/false);
  RecordProperty("allocations_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, kBudgetPerOp);
}

TEST(AllocBudget, SteadyStateDispatchLoggerOn) {
  const double per_op = allocations_per_op(/*logger=*/true);
  RecordProperty("allocations_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, kBudgetPerOp);
}

TEST(AllocBudget, CopyingATensorDoesNotAllocate) {
  const Tensor phantom = Tensor::phantom({16, 4}, DType::F32, nullptr);
  const Tensor dense = Tensor::zeros({2, 3}, DType::F64, nullptr);
  const std::uint64_t before = heap_allocations();
  Tensor a = phantom;
  Tensor b = dense;
  Tensor c = a;
  c = b;
  Tensor v = dense.view(1, 4);
  Tensor p = phantom.view(0, 8);
  const std::uint64_t made = heap_allocations() - before;
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(c.numel(), 6);
  EXPECT_EQ(v.numel(), 4);
  EXPECT_EQ(p.numel(), 8);
}

}  // namespace
}  // namespace mcrdl
