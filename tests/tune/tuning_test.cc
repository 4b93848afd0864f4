// Tests for the tuning table and tuning suite: lookup semantics,
// serialisation round trips, and suite-generated tables matching the
// cost-model orderings (the Table II pipeline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/tune/tuning.h"
#include "src/core/mcr_dl.h"
#include "src/tune/online_tuner.h"
#include "src/net/cost.h"

namespace mcrdl {
namespace {

TEST(TuningTable, ExactLookup) {
  TuningTable t;
  t.set(OpType::AllGather, 64, 2048, "mv2-gdr");
  t.set(OpType::AllGather, 64, 8192, "nccl");
  t.set(OpType::AllGather, 64, 32768, "sccl");
  EXPECT_EQ(t.lookup(OpType::AllGather, 64, 256), "mv2-gdr");
  EXPECT_EQ(t.lookup(OpType::AllGather, 64, 2048), "mv2-gdr");
  EXPECT_EQ(t.lookup(OpType::AllGather, 64, 2049), "nccl");
  EXPECT_EQ(t.lookup(OpType::AllGather, 64, 32768), "sccl");
}

TEST(TuningTable, OversizedMessagesUseLargestBucket) {
  TuningTable t;
  t.set(OpType::AllReduce, 8, 1024, "mv2-gdr");
  t.set(OpType::AllReduce, 8, 65536, "nccl");
  EXPECT_EQ(t.lookup(OpType::AllReduce, 8, 10 << 20), "nccl");
}

TEST(TuningTable, NearestWorldSizeResolution) {
  TuningTable t;
  t.set(OpType::AllReduce, 16, 1024, "a16");
  t.set(OpType::AllReduce, 64, 1024, "a64");
  EXPECT_EQ(t.lookup(OpType::AllReduce, 16, 512), "a16");
  EXPECT_EQ(t.lookup(OpType::AllReduce, 32, 512), "a64");   // next size up
  EXPECT_EQ(t.lookup(OpType::AllReduce, 128, 512), "a64");  // beyond: largest
  EXPECT_EQ(t.lookup(OpType::AllReduce, 4, 512), "a16");
}

TEST(TuningTable, WorldBetweenTabulatedPointsPrefersNextUp) {
  // Interpolation rule: an untabulated world resolves to the next tabulated
  // world *up* (collective latency grows with scale, so the larger grid
  // point's winner is the safe extrapolation), not the nearest neighbour.
  TuningTable t;
  t.set(OpType::AllGather, 8, 1024, "a8");
  t.set(OpType::AllGather, 32, 1024, "a32");
  t.set(OpType::AllGather, 128, 1024, "a128");
  EXPECT_EQ(t.lookup(OpType::AllGather, 9, 512), "a32");    // nearest is 8; up wins
  EXPECT_EQ(t.lookup(OpType::AllGather, 31, 512), "a32");
  EXPECT_EQ(t.lookup(OpType::AllGather, 33, 512), "a128");
  EXPECT_EQ(t.lookup(OpType::AllGather, 127, 512), "a128");
}

TEST(TuningTable, SingleEntryTableServesEveryQuery) {
  // Degenerate but common during online warm-up: one grid point must cover
  // every (world, bytes) query for its op without throwing.
  TuningTable t;
  t.set(OpType::AllReduce, 16, 4096, "nccl");
  EXPECT_EQ(t.lookup(OpType::AllReduce, 16, 4096), "nccl");
  EXPECT_EQ(t.lookup(OpType::AllReduce, 2, 1), "nccl");          // below on both axes
  EXPECT_EQ(t.lookup(OpType::AllReduce, 1024, 64 << 20), "nccl");  // above on both axes
  EXPECT_EQ(t.num_entries(), 1u);
  // Round-trips through the text format like any other table.
  EXPECT_EQ(TuningTable::parse(t.serialize()).lookup(OpType::AllReduce, 8, 123), "nccl");
}

TEST(TuningTable, OnlineLearnedTableRoundTrips) {
  // An online-produced table (tune::OnlineTuner::to_table) uses pow2 size
  // buckets the static suite never emits; it must still serialise, parse,
  // and look up identically — that is the warm-start contract.
  tune::OnlineTunerConfig cfg;
  cfg.enabled = true;
  tune::OnlineTuner tuner(cfg);
  const std::vector<std::string> cands = {"nccl", "mv2-gdr"};
  for (int i = 0; i < 8; ++i) {
    tuner.select(OpType::AllReduce, 8, 200 * 1000, 0, cands);
    tuner.observe(OpType::AllReduce, 8, 200 * 1000, "nccl", 50.0);
    tuner.observe(OpType::AllReduce, 8, 200 * 1000, "mv2-gdr", 90.0);
  }
  TuningTable learned = tuner.to_table();
  ASSERT_GE(learned.num_entries(), 1u);
  TuningTable reparsed = TuningTable::parse(learned.serialize());
  EXPECT_EQ(reparsed.num_entries(), learned.num_entries());
  const std::size_t bucket = tune::OnlineTuner::bucket(200 * 1000);
  EXPECT_EQ(reparsed.lookup(OpType::AllReduce, 8, bucket),
            learned.lookup(OpType::AllReduce, 8, bucket));
  EXPECT_EQ(reparsed.lookup(OpType::AllReduce, 8, bucket), "nccl");
}

TEST(TuningTable, MissingOpThrows) {
  TuningTable t;
  t.set(OpType::AllReduce, 8, 1024, "nccl");
  EXPECT_THROW(t.lookup(OpType::AllGather, 8, 512), InvalidArgument);
  EXPECT_TRUE(t.has(OpType::AllReduce));
  EXPECT_FALSE(t.has(OpType::AllGather));
}

TEST(TuningTable, EntryCountFormula) {
  // Paper: entries = Num_Collectives x Num_Scales x Num_Message_Sizes.
  TuningTable t;
  for (OpType op : {OpType::AllReduce, OpType::AllGather}) {
    for (int world : {8, 16, 32}) {
      for (std::size_t bytes : {1024u, 4096u, 16384u, 65536u}) {
        t.set(op, world, bytes, "nccl");
      }
    }
  }
  EXPECT_EQ(t.num_entries(), 2u * 3u * 4u);
  // entries() is one (op, world) row of Table II, ascending by size.
  const std::vector<TuningTable::Entry> row = t.entries(OpType::AllGather, 16);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.front().max_bytes, 1024u);
  EXPECT_EQ(row.back().max_bytes, 65536u);
  EXPECT_EQ(row.back().op, OpType::AllGather);
  EXPECT_EQ(row.back().world, 16);
  EXPECT_EQ(row.back().backend, "nccl");
  EXPECT_TRUE(t.entries(OpType::AllGather, 12).empty());
  EXPECT_TRUE(t.entries(OpType::Broadcast, 16).empty());
  EXPECT_EQ(t.tuned_worlds(OpType::AllReduce), (std::vector<int>{8, 16, 32}));
  EXPECT_TRUE(t.tuned_worlds(OpType::Broadcast).empty());
}

TEST(TuningTable, SerializeParseRoundTrip) {
  TuningTable t;
  t.set(OpType::AllGather, 64, 2048, "mv2-gdr");
  t.set(OpType::AllToAllSingle, 32, 1 << 20, "nccl");
  TuningTable r = TuningTable::parse(t.serialize());
  EXPECT_EQ(r.lookup(OpType::AllGather, 64, 100), "mv2-gdr");
  EXPECT_EQ(r.lookup(OpType::AllToAllSingle, 32, 1 << 19), "nccl");
  EXPECT_EQ(r.num_entries(), 2u);
}

TEST(TuningTable, SaveLoadRoundTrip) {
  TuningTable t;
  t.set(OpType::Broadcast, 16, 4096, "sccl");
  const std::string path = ::testing::TempDir() + "/mcrdl_tuning_test.txt";
  t.save(path);
  TuningTable r = TuningTable::load(path);
  EXPECT_EQ(r.lookup(OpType::Broadcast, 16, 1), "sccl");
  std::remove(path.c_str());
}

TEST(TuningTable, ParseRejectsGarbage) {
  EXPECT_THROW(TuningTable::parse("all_reduce not_a_number 12 nccl\n"), InvalidArgument);
  EXPECT_THROW(TuningTable::parse("frobnicate 8 1024 nccl\n"), InvalidArgument);
}

TEST(TuningTable, ParseRejectsTrailingGarbageWithLineNumber) {
  // Regression: the parser used to read exactly four fields and silently
  // drop the rest of the line, so a table damaged by a bad merge ("nccl
  // nccl") or a stray column loaded as if it were fine.
  const std::string text =
      "# header\n"
      "all_reduce 8 1024 nccl\n"
      "all_gather 8 2048 mv2-gdr extra-token\n";
  try {
    TuningTable::parse(text);
    FAIL() << "trailing garbage accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trailing garbage"), std::string::npos) << msg;
    EXPECT_NE(msg.find("extra-token"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(TuningTable, RoundTripThenDamagedCopyIsRejected) {
  // serialize() output must parse, and any single line with an appended
  // token must not.
  TuningTable t;
  t.set(OpType::AllGather, 64, 2048, "mv2-gdr");
  t.set(OpType::AllToAllSingle, 32, 1 << 20, "nccl");
  const std::string clean = t.serialize();
  EXPECT_EQ(TuningTable::parse(clean).num_entries(), 2u);
  std::istringstream in(clean);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string damaged = clean;
    const std::size_t pos = damaged.find(line);
    damaged.insert(pos + line.size(), " 999");
    EXPECT_THROW(TuningTable::parse(damaged), InvalidArgument)
        << "line " << line_no << " accepted trailing garbage";
  }
}

TEST(TuningTable, ParseSkipsCommentsAndBlankLines) {
  TuningTable t = TuningTable::parse("# header\n\nall_reduce 8 1024 nccl\n");
  EXPECT_EQ(t.num_entries(), 1u);
}

TEST(AutoResolution, UntunedOpFallsBackInsteadOfThrowing) {
  // Regression: "auto" for an op the table never tuned used to throw out of
  // TuningTable::lookup mid-dispatch and kill the run. Resolution now falls
  // back to the default backend with a warning and a tune.fallback counter;
  // the throw is reserved for direct lookup() callers (tested above).
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl", "mv2-gdr"});
  TuningTable table;
  table.set(OpType::AllReduce, 4, 1 << 20, "mv2-gdr");
  mcr.set_tuning_table(table);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    Tensor t = Tensor::full({256}, DType::F32, 1.0, dev);
    Work tuned = api.all_reduce("auto", t, ReduceOp::Sum, true);
    Tensor gathered = Tensor::zeros({256 * 4}, DType::F32, dev);
    Work untuned = api.all_gather("auto", gathered, t, true);  // not in the table
    tuned->synchronize();
    untuned->synchronize();
    if (rank == 0) {
      EXPECT_EQ(tuned->backend_name, "mv2-gdr");
      EXPECT_EQ(untuned->backend_name, "nccl");  // default = first initialised
    }
    api.synchronize();
  });
  EXPECT_GT(cluster.metrics().counter("tune.fallback", {{"op", "all_gather"}}).value(), 0u);
  mcr.finalize();
}

// "auto" maps TuningTable::lookup's winner to a backend id: every (op,
// world, bytes) point must name what lookup names, and each fallback
// behaves as it always did.
TEST(AutoResolution, IdResolutionMatchesLookupEverywhere) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  TuningTable table;
  const char* names[] = {"nccl", "mv2-gdr", "ompi", "sccl"};
  const OpType ops[] = {OpType::AllReduce, OpType::Broadcast, OpType::AllToAllSingle};
  const int worlds[] = {2, 8, 32};
  const std::size_t sizes[] = {1024, 65536, 1 << 20};
  int k = 0;
  for (OpType op : ops) {
    for (int w : worlds) {
      for (std::size_t s : sizes) table.set(op, w, s, names[k++ % 4]);
    }
  }
  // Installed before init, so ids first exist after the table does.
  mcr.set_tuning_table(table);
  const auto check_grid = [&](const std::vector<std::string>& initialised) {
    for (OpType op : ops) {
      for (int w : {1, 2, 3, 8, 9, 31, 32, 33, 1024}) {  // 1024: beyond every world
        for (std::size_t b : {std::size_t{0}, std::size_t{1}, std::size_t{1024},
                              std::size_t{1025}, std::size_t{65536}, std::size_t{65537},
                              std::size_t{1} << 20, (std::size_t{1} << 20) + 1,
                              std::size_t{1} << 30}) {
          const std::string& best = table.lookup(op, w, b);
          const bool present = std::find(initialised.begin(), initialised.end(), best) !=
                               initialised.end();
          const BackendId id = mcr.resolve("auto", op, b, w, 0);
          ASSERT_LT(id, mcr.num_backends());
          // A winner that is not initialised falls back to the first backend.
          EXPECT_EQ(mcr.get_backends()[id], present ? best : initialised.front())
              << op_name(op) << " world " << w << " bytes " << b;
        }
      }
    }
  };
  mcr.init({"nccl", "mv2-gdr"});  // ompi and sccl wins fall back to nccl
  check_grid({"nccl", "mv2-gdr"});

  // An untuned op falls back to the first backend, one tune.fallback per call.
  const obs::Labels gather{{"op", "all_gather"}};
  for (std::uint64_t call = 1; call <= 3; ++call) {
    EXPECT_EQ(mcr.resolve("auto", OpType::AllGather, 4096, 4, 0), 0u);
    EXPECT_EQ(cluster.metrics().counter_value("tune.fallback", gather), call);
  }
  // A winner that was not initialised warns but counts no fallback.
  EXPECT_EQ(cluster.metrics().counter_total("tune.fallback"), 3u);

  // An explicit name resolves by name; an unknown one throws what backend()
  // throws.
  EXPECT_EQ(mcr.resolve("mv2-gdr", OpType::AllReduce, 4096, 4, 0), 1u);
  std::string by_resolve, by_backend;
  try {
    mcr.resolve("gloo", OpType::AllReduce, 4096, 4, 0);
  } catch (const InvalidArgument& e) {
    by_resolve = e.what();
  }
  try {
    mcr.backend("gloo");
  } catch (const InvalidArgument& e) {
    by_backend = e.what();
  }
  EXPECT_FALSE(by_resolve.empty());
  EXPECT_EQ(by_resolve, by_backend);

  // finalize() + init() with another set and order maps the same table onto
  // the new ids.
  mcr.finalize();
  mcr.init({"sccl", "ompi", "mv2-gdr"});
  check_grid({"sccl", "ompi", "mv2-gdr"});
  mcr.finalize();
}

TEST(AutoResolution, TableInstalledMidRunTakesEffectOnTheNextOp) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl", "mv2-gdr"});
  TuningTable first;
  first.set(OpType::AllReduce, 4, 1 << 20, "mv2-gdr");
  mcr.set_tuning_table(first);
  TuningTable second;
  second.set(OpType::AllReduce, 4, 1 << 20, "nccl");
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({256}, DType::F32, 1.0, cluster.device(rank));
    Work before = api.all_reduce("auto", t);
    // Every rank enters the barrier after rank 0 swapped the table, so every
    // rank's next op sees the new one.
    if (rank == 0) mcr.set_tuning_table(second);
    api.barrier("mv2-gdr");
    Work after = api.all_reduce("auto", t, ReduceOp::Sum, true);
    after->synchronize();
    EXPECT_EQ(before->backend_name, "mv2-gdr");
    EXPECT_EQ(after->backend_name, "nccl");
    api.synchronize();
  });
  mcr.finalize();
}

TEST(TuningSuite, GeneratesTableMatchingCostModelOrderings) {
  // A reduced grid at 16 Lassen GPUs: small allreduce must tune to
  // MVAPICH2-GDR and large allreduce to NCCL (Fig 2a premise).
  TuningSuite suite(net::SystemConfig::lassen(4));
  TuningConfig cfg;
  cfg.backends = {"nccl", "mv2-gdr"};
  cfg.ops = {OpType::AllReduce};
  cfg.sizes = {1024, 1 << 22};
  cfg.world_sizes = {16};
  cfg.iterations = 2;
  cfg.warmup = 1;
  TuningTable table = suite.generate(cfg);
  EXPECT_EQ(table.lookup(OpType::AllReduce, 16, 1024), "mv2-gdr");
  EXPECT_EQ(table.lookup(OpType::AllReduce, 16, 1 << 22), "nccl");
  EXPECT_EQ(table.num_entries(), 2u);
  // Raw measurements are retained for Fig 2-style plots.
  EXPECT_EQ(suite.measurements().size(), 4u);
  EXPECT_GT(suite.measured("nccl", OpType::AllReduce, 16, 1024), 0.0);
}

TEST(TuningSuite, AlltoallTunesToMv2AtScale) {
  TuningSuite suite(net::SystemConfig::lassen(4));
  TuningConfig cfg;
  cfg.backends = {"nccl", "mv2-gdr"};
  cfg.ops = {OpType::AllToAllSingle};
  cfg.sizes = {1 << 20};
  cfg.world_sizes = {16};
  cfg.iterations = 1;
  TuningTable table = suite.generate(cfg);
  EXPECT_EQ(table.lookup(OpType::AllToAllSingle, 16, 1 << 20), "mv2-gdr");
}

TEST(TuningSuite, MultipleWorldSizesProduceIndependentRows) {
  TuningSuite suite(net::SystemConfig::lassen(2));
  TuningConfig cfg;
  cfg.backends = {"nccl"};
  cfg.ops = {OpType::AllReduce};
  cfg.sizes = {4096};
  cfg.world_sizes = {4, 8};
  cfg.iterations = 1;
  TuningTable table = suite.generate(cfg);
  EXPECT_EQ(table.tuned_worlds(OpType::AllReduce), (std::vector<int>{4, 8}));
  // Latency grows with scale.
  EXPECT_LT(suite.measured("nccl", OpType::AllReduce, 4, 4096),
            suite.measured("nccl", OpType::AllReduce, 8, 4096));
}

}  // namespace
}  // namespace mcrdl
