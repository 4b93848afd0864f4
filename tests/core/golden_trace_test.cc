// Golden-trace regression harness: a fixed mixed-backend workload is run
// through the full facade (fusion, compression, emulation, "auto" tuning,
// p2p, sub-groups, fault routing) and every CommRecord — including virtual
// start/end times — is serialised canonically and compared byte-for-byte
// against a checked-in golden file. This pins the refactor invariant that
// collective dispatch restructuring must not move a single virtual-time
// stamp, and PR 1's invariant that an installed-but-empty fault plan is
// bit-identical to a build without the fault subsystem.
//
// To regenerate after an *intentional* behaviour change:
//   MCRDL_UPDATE_GOLDEN=1 ./build/tests/core/core_golden_trace_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

// One line per CommRecord. `requested_backend` is serialised only for
// rerouted operations, so the canonical form is stable across metadata
// enrichments that fill the field on the non-rerouted path too.
std::string canonical_records(const CommLogger& logger) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const CommRecord& r : logger.records()) {
    os << r.rank << '|' << op_name(r.op) << '|' << r.backend << '|' << r.bytes << '|' << r.start
       << '|' << r.end << '|' << (r.fused ? 'F' : '.') << (r.compressed ? 'C' : '.') << '|'
       << r.attempts << '|' << (r.rerouted ? r.requested_backend : std::string("-")) << '|'
       << (r.fault.empty() ? std::string("-") : r.fault) << '\n';
  }
  return os.str();
}

// The fixed workload: every dispatch path the facade has. Returns a data
// checksum so the golden also guards data semantics, not just timing.
double run_workload(McrDl& mcr, ClusterContext& cluster) {
  const int n = cluster.world_size();
  std::vector<double> sums(static_cast<std::size_t>(n), 0.0);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    double& sum = sums[static_cast<std::size_t>(rank)];

    // Fused small allreduces (async) on nccl.
    std::vector<Tensor> fused;
    for (int i = 0; i < 3; ++i) {
      Tensor t = Tensor::full({256}, DType::F32, rank + i + 1.0, dev);
      api.all_reduce("nccl", t, ReduceOp::Sum, /*async_op=*/true);
      fused.push_back(t);
    }

    // Large allreduce on mv2-gdr (bypasses fusion: > max_tensor_bytes).
    Tensor big = Tensor::full({32768}, DType::F32, 1.0, dev);
    api.all_reduce("mv2-gdr", big);
    sum += big.get(0);

    // Compressed broadcast on mv2-gdr.
    Tensor bc = rank == 0 ? Tensor::full({8192}, DType::F32, 3.5, dev)
                          : Tensor::zeros({8192}, DType::F32, dev);
    api.broadcast("mv2-gdr", bc, 0);
    sum += bc.get(8191);

    // Compressed all_gather on nccl.
    Tensor ag_in = Tensor::full({2048}, DType::F32, rank * 1.0, dev);
    Tensor ag_out = Tensor::zeros({2048 * n}, DType::F32, dev);
    api.all_gather("nccl", ag_out, ag_in);

    // Emulated gather on nccl (root 2).
    Tensor g_in = Tensor::full({4}, DType::F32, rank + 1.0, dev);
    Tensor g_out = rank == 2 ? Tensor::zeros({4 * n}, DType::F32, dev) : Tensor();
    api.gather("nccl", g_out, g_in, /*root=*/2);
    if (rank == 2) sum += g_out.get(4 * n - 1);

    // Emulated all_gatherv on nccl (uneven counts).
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    Tensor agv_in = Tensor::full({rank + 1}, DType::F32, rank * 1.0, dev);
    Tensor agv_out = Tensor::zeros({total}, DType::F32, dev);
    api.all_gatherv("nccl", agv_out, agv_in, counts, displs);
    sum += agv_out.get(total - 1);

    // Native all_to_allv on mv2-gdr (uniform 2-element blocks).
    std::vector<int> two(static_cast<std::size_t>(n), 2), twod;
    for (int r = 0; r < n; ++r) twod.push_back(2 * r);
    Tensor av_in = Tensor::arange(2 * n, DType::F32, dev);
    Tensor av_out = Tensor::zeros({2 * n}, DType::F32, dev);
    api.all_to_allv("mv2-gdr", av_out, av_in, two, twod, two, twod);
    sum += av_out.get(0);

    // Emulated scatterv on nccl (root 1).
    Tensor sv_in =
        rank == 1 ? Tensor::arange(2 * n, DType::F32, dev) : Tensor();
    Tensor sv_out = Tensor::zeros({2}, DType::F32, dev);
    api.scatterv("nccl", sv_out, sv_in, /*root=*/1, two, twod);
    sum += sv_out.get(1);

    // reduce_scatter on mv2-gdr.
    Tensor rs_in = Tensor::arange(n, DType::F32, dev);
    Tensor rs_out = Tensor::zeros({1}, DType::F32, dev);
    api.reduce_scatter("mv2-gdr", rs_out, rs_in);
    sum += rs_out.get(0);

    // Compressed all_to_all_single on nccl.
    Tensor a2a_in = Tensor::full({4096}, DType::F32, rank * 1.0, dev);
    Tensor a2a_out = Tensor::zeros({4096}, DType::F32, dev);
    api.all_to_all_single("nccl", a2a_out, a2a_in);

    // "auto" dispatch through the tuning table: small and large buckets.
    Tensor au_small = Tensor::full({8}, DType::F32, 1.0, dev);
    Work ws = api.all_reduce("auto", au_small, ReduceOp::Sum, true);
    Tensor au_large = Tensor::full({1 << 16}, DType::F32, 1.0, dev);
    Work wl = api.all_reduce("auto", au_large, ReduceOp::Sum, true);
    ws->synchronize();
    wl->synchronize();
    sum += au_small.get(0) + au_large.get(0);

    // Point-to-point on nccl between ranks 0 and 1.
    if (rank == 0) {
      Tensor p = Tensor::full({1024}, DType::F32, 42.0, dev);
      api.send("nccl", p, /*dst=*/1);
    } else if (rank == 1) {
      Tensor p = Tensor::zeros({1024}, DType::F32, dev);
      api.recv("nccl", p, /*src=*/0);
      api.synchronize("nccl");
      sum += p.get(0);
    }

    // Sub-group allreduce on mv2-gdr (two halves of the world).
    std::vector<int> half;
    for (int r = 0; r < n / 2; ++r) half.push_back(rank < n / 2 ? r : n / 2 + r);
    Api grp = api.group(half);
    Tensor gt = Tensor::full({16}, DType::F32, 1.0, dev);
    grp.all_reduce("mv2-gdr", gt);
    sum += gt.get(0);

    api.barrier("mv2-gdr");
    api.synchronize();
    for (const Tensor& t : fused) sum += t.get(0);
  });
  double checksum = 0.0;
  for (double s : sums) checksum += s;
  return checksum;
}

McrDlOptions base_options() {
  McrDlOptions opts;
  opts.logging_enabled = true;
  opts.per_call_overhead_us = 2.0;
  opts.fusion.enabled = true;
  opts.compression.enabled = true;
  opts.compression.min_bytes = 4096;
  return opts;
}

fault::FaultPlan chaos_plan() {
  fault::FaultPlan plan;
  plan.seed = 0xdecaf123ULL;
  plan.specs.push_back(
      fault::FaultSpec::transient_op("nccl", OpType::AllGather, 0.2, 0.0, 2000.0));
  plan.specs.push_back(fault::FaultSpec::outage("mv2-gdr", 700.0));
  plan.specs.push_back(fault::FaultSpec::straggler(3, 25.0, 0.0, 1500.0));
  return plan;
}

// Runs the workload on a fresh 2-node Lassen cluster and serialises the
// resulting trace. `fault_mode`: 0 = subsystem off, 1 = enabled with an
// empty plan, 2 = enabled with the chaos plan, 3 = enabled with elastic
// recovery armed but a loss instant beyond the end of the run, 4 = mode 3
// plus a rejoin spec even further out (grow path armed, never fired).
std::string run_scenario(int fault_mode) {
  McrDlOptions opts = base_options();
  if (fault_mode == 1) opts.fault.enabled = true;
  if (fault_mode == 2) {
    opts.fault.enabled = true;
    opts.fault.plan = chaos_plan();
    // Fusion flushes can fire from timer context, where injected straggler
    // delays cannot suspend; the fused path is pinned by the no-fault golden.
    opts.fusion.enabled = false;
  }
  if (fault_mode == 3 || fault_mode == 4) {
    opts.fault.enabled = true;
    opts.fault.plan.specs.push_back(fault::FaultSpec::lose_rank(0, 1e12));
  }
  if (fault_mode == 4) {
    opts.fault.plan.specs.push_back(fault::FaultSpec::rejoin_rank(0, 2e12));
  }
  ClusterContext cluster(net::SystemConfig::lassen(2));
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl", "mv2-gdr"});
  TuningTable table;
  table.set(OpType::AllReduce, cluster.world_size(), 1024, "mv2-gdr");
  table.set(OpType::AllReduce, cluster.world_size(), 1 << 26, "nccl");
  mcr.set_tuning_table(std::move(table));

  const double checksum = run_workload(mcr, cluster);

  std::ostringstream os;
  os << canonical_records(mcr.logger());
  os << std::fixed << std::setprecision(6) << "checksum=" << checksum
     << " final_t=" << cluster.scheduler().now() << '\n';
  return os.str();
}

std::string golden_path(const std::string& name) {
  return std::string(MCRDL_GOLDEN_DIR) + "/" + name;
}

void compare_with_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("MCRDL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with MCRDL_UPDATE_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected != actual) {
    // Find the first differing line for a readable failure.
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    int line = 1;
    while (std::getline(ea, el) && std::getline(aa, al) && el == al) ++line;
    FAIL() << "trace diverges from golden " << name << " at line " << line << "\n  golden: " << el
           << "\n  actual: " << al;
  }
}

TEST(GoldenTrace, FaultSubsystemDisabled) {
  compare_with_golden("trace_nofault.txt", run_scenario(0));
}

TEST(GoldenTrace, ChaosPlanReplaysIdentically) {
  compare_with_golden("trace_chaos.txt", run_scenario(2));
}

// PR 1 invariant: enabling the fault subsystem with an empty plan must be
// bit-identical to running without it — same records, same virtual times.
TEST(GoldenTrace, EmptyFaultPlanIsBitIdenticalToDisabled) {
  EXPECT_EQ(run_scenario(0), run_scenario(1));
}

// Elastic-recovery invariant: arming recovery (a rank_loss spec whose
// instant lies beyond the end of the run, so the loss event never fires)
// must not move a single virtual-time stamp either — the recover stage at
// epoch 0 is a pure pass-through.
TEST(GoldenTrace, ArmedRecoveryWithNoLossIsBitIdenticalToDisabled) {
  EXPECT_EQ(run_scenario(0), run_scenario(3));
}

// Grow-path extension of the same invariant (DESIGN.md §13): arming rejoin
// (a rank_rejoin spec that never fires, on top of the never-firing loss)
// registers grow hooks and the checkpoint sections but must not move a
// single virtual-time stamp either.
TEST(GoldenTrace, ArmedRejoinWithNoGrowIsBitIdenticalToDisabled) {
  EXPECT_EQ(run_scenario(0), run_scenario(4));
}

// Independent ClusterContexts share no state (DESIGN.md §4): the full
// workload run on two host threads at once, one context each, reproduces
// the golden on both. Under -fsanitize=thread this is the check that
// nothing in the library is process-global.
TEST(GoldenTrace, TwoContextsOnTwoThreadsMatchGolden) {
  std::string traces[2];
  std::thread first([&] { traces[0] = run_scenario(0); });
  std::thread second([&] { traces[1] = run_scenario(0); });
  first.join();
  second.join();
  compare_with_golden("trace_nofault.txt", traces[0]);
  compare_with_golden("trace_nofault.txt", traces[1]);
}

}  // namespace
}  // namespace mcrdl
