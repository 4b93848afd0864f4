// MetricsRegistry units plus end-to-end instrumentation: a real pipeline
// run must populate the comm/pipeline/failover counters, the per-stage and
// per-op histograms, and the link gauges — and the snapshot must satisfy
// the strict JSON parser.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/mcr_dl.h"
#include "src/obs/json.h"

namespace mcrdl::obs {
namespace {

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsTheLastWrite) {
  Gauge g;
  g.set(1.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Histogram, BucketsByInclusiveUpperEdge) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive)
  h.observe(10.5);   // <= 100
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1012.0);
}

TEST(Histogram, DefaultLatencyBoundsArePowersOfTwo) {
  const std::vector<double> b = Histogram::default_latency_bounds_us();
  ASSERT_EQ(b.size(), 21u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_DOUBLE_EQ(b.back(), 1048576.0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_DOUBLE_EQ(b[i], 2.0 * b[i - 1]);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}), InvalidArgument);
}

// observe() takes the first bucket with one compare. Every value — zeros of
// both signs, negatives, NaN, infinities, each bound and its neighbours on
// both sides — must land where std::lower_bound puts it, with the same count
// and sum.
TEST(Histogram, FirstBucketFastPathMatchesLowerBound) {
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || (a == b && std::signbit(a) == std::signbit(b));
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bounds :
       {Histogram::default_latency_bounds_us(), std::vector<double>{0.0, 1.0},
        std::vector<double>{-5.0, -0.5, 3.0}}) {
    std::vector<double> values = {0.0, -0.0, -1.0, -1e300, std::nan(""), inf, -inf, 1e-300};
    for (double b : bounds) {
      values.push_back(b);
      values.push_back(std::nextafter(b, -inf));
      values.push_back(std::nextafter(b, inf));
    }
    Histogram all(bounds);
    std::vector<std::uint64_t> ref_counts(bounds.size() + 1, 0);
    double ref_sum = 0.0;
    for (double v : values) {
      const auto ref = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
      Histogram one(bounds);
      one.observe(v);
      for (std::size_t i = 0; i < one.bucket_counts().size(); ++i) {
        EXPECT_EQ(one.bucket_counts()[i], i == ref ? 1u : 0u) << "value " << v << " bucket " << i;
      }
      EXPECT_EQ(one.count(), 1u);
      EXPECT_TRUE(same(one.sum(), 0.0 + v)) << "value " << v;
      all.observe(v);
      ++ref_counts[ref];
      ref_sum += v;
    }
    EXPECT_EQ(all.bucket_counts(), ref_counts);
    EXPECT_EQ(all.count(), values.size());
    EXPECT_TRUE(same(all.sum(), ref_sum));
  }
}

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.counter("ops", {{"backend", "nccl"}});
  Counter& b = reg.counter("ops", {{"backend", "nccl"}});
  EXPECT_EQ(&a, &b);  // cached references stay valid
  a.inc(3);
  EXPECT_EQ(reg.counter_value("ops", {{"backend", "nccl"}}), 3u);
  EXPECT_EQ(reg.counter_value("ops", {{"backend", "mv2-gdr"}}), 0u);
  reg.counter("ops", {{"backend", "mv2-gdr"}}).inc(2);
  EXPECT_EQ(reg.counter_total("ops"), 5u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, HistogramBoundsApplyOnlyOnFirstCreation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {}, {5.0, 50.0});
  Histogram& again = reg.histogram("lat", {}, {1.0});  // ignored: already exists
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(h.bounds().size(), 2u);
  // Empty bounds = default power-of-two edges.
  EXPECT_EQ(reg.histogram("other").bounds().size(), 21u);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(MetricsRegistry, SnapshotIsStrictJsonWithSortedKeys) {
  MetricsRegistry reg;
  reg.counter("ops", {{"backend", "nccl"}, {"op", "all_reduce"}}).inc(7);
  reg.gauge("util", {{"link", "inter"}}).set(0.75);
  reg.histogram("lat", {}, {1.0, 2.0}).observe(1.5);
  const JsonValue doc = parse_json(reg.to_json());

  const auto& counters = doc.at("counters").array;
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].at("name").str, "ops");
  EXPECT_EQ(counters[0].at("labels").at("backend").str, "nccl");
  EXPECT_DOUBLE_EQ(counters[0].at("value").number, 7.0);

  const auto& gauges = doc.at("gauges").array;
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].at("value").number, 0.75);

  const auto& hists = doc.at("histograms").array;
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_DOUBLE_EQ(hists[0].at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hists[0].at("sum").number, 1.5);
  ASSERT_EQ(hists[0].at("bounds").array.size(), 2u);
  ASSERT_EQ(hists[0].at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(hists[0].at("buckets").array[1].number, 1.0);
}

TEST(MetricsRegistry, SnapshotOrderIsDeterministic) {
  auto build = [](int reversed) {
    MetricsRegistry reg;
    if (reversed) {
      reg.counter("b").inc();
      reg.counter("a", {{"z", "1"}}).inc();
      reg.counter("a", {{"y", "1"}}).inc();
    } else {
      reg.counter("a", {{"y", "1"}}).inc();
      reg.counter("a", {{"z", "1"}}).inc();
      reg.counter("b").inc();
    }
    return reg.to_json();
  };
  EXPECT_EQ(build(0), build(1));
}

// --- end-to-end: one real run populates the whole surface -------------------

TEST(MetricsEndToEnd, PipelineRunPopulatesCountersHistogramsAndGauges) {
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl", "mv2-gdr"});
  constexpr int kIters = 3;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({256}, DType::F32, 1.0, cluster.device(rank));
    for (int i = 0; i < kIters; ++i) api.all_reduce("nccl", t, ReduceOp::Sum);
    Tensor o = Tensor::zeros({256}, DType::F32, cluster.device(rank));
    api.all_to_all_single("mv2-gdr", o, t);
    api.synchronize();
  });

  MetricsRegistry& m = cluster.metrics();
  const auto world = static_cast<std::uint64_t>(cluster.world_size());

  // Issue-side counters: one native issue per rank per op, no retries.
  EXPECT_EQ(m.counter_value("comm_ops", {{"backend", "nccl"}, {"op", "all_reduce"}}),
            kIters * world);
  EXPECT_EQ(m.counter_value("comm_ops", {{"backend", "mv2-gdr"}, {"op", "all_to_all_single"}}),
            world);
  EXPECT_EQ(m.counter_value("comm_bytes", {{"backend", "nccl"}}),
            kIters * world * 256 * 4);

  // Pipeline-side: completion counter and latency histogram agree.
  EXPECT_EQ(m.counter_value("pipeline_ops", {{"backend", "nccl"}, {"op", "all_reduce"}}),
            kIters * world);
  const Histogram* lat =
      m.find_histogram("op_latency_us", {{"backend", "nccl"}, {"op", "all_reduce"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), kIters * world);
  EXPECT_GT(lat->sum(), 0.0);

  // Every built-in stage observed every op.
  const std::uint64_t total_ops = (kIters + 1) * world;
  for (const char* stage : {"overhead", "resolve", "fusion", "compression",
                                   "finish", "recover", "route", "issue"}) {
    const Histogram* h = m.find_histogram("pipeline_stage_us", {{"stage", stage}});
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count(), total_ops) << stage;
  }

  // No faults: the failover counters must not exist / stay zero.
  EXPECT_EQ(m.counter_total("failover_retries"), 0u);
  EXPECT_EQ(m.counter_total("failover_reroutes"), 0u);
  EXPECT_EQ(m.counter_total("breaker_transitions"), 0u);

  // metrics_json() refreshes the link gauges from the cost model and the
  // result satisfies the strict parser.
  const JsonValue doc = parse_json(cluster.metrics_json());
  EXPECT_GT(m.gauge_value("link_ops", {{"link", "intra"}}), 0.0);
  EXPECT_GT(m.gauge_value("link_bytes", {{"link", "intra"}}), 0.0);
  EXPECT_GT(m.gauge_value("link_utilization", {{"link", "intra"}}), 0.0);
  EXPECT_FALSE(doc.at("counters").array.empty());
  EXPECT_FALSE(doc.at("gauges").array.empty());
}

TEST(MetricsEndToEnd, StageTimesAreExclusive) {
  // The per-stage histograms record exclusive time: the sum across stages
  // must not exceed the pipeline's wall-clock share of the run (inclusive
  // accounting would double-count the issue stage once per wrapper stage).
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    Tensor t = Tensor::full({1 << 16}, DType::F32, 1.0, cluster.device(rank));
    api.all_reduce("nccl", t, ReduceOp::Sum);
    api.synchronize();
  });
  MetricsRegistry& m = cluster.metrics();
  double stage_sum = 0.0;
  std::uint64_t stage_count = 0;
  for (const char* stage : {"overhead", "resolve", "fusion", "compression",
                                   "finish", "recover", "route", "issue"}) {
    const Histogram* h = m.find_histogram("pipeline_stage_us", {{"stage", stage}});
    ASSERT_NE(h, nullptr) << stage;
    stage_sum += h->sum();
    stage_count += h->count();
  }
  EXPECT_EQ(stage_count, 8u * static_cast<std::uint64_t>(cluster.world_size()));
  EXPECT_GE(stage_sum, 0.0);
  // Exclusive times can never exceed the whole run's virtual duration
  // multiplied by the number of ranks submitting concurrently.
  EXPECT_LE(stage_sum, cluster.scheduler().now() * cluster.world_size());
}

}  // namespace
}  // namespace mcrdl::obs
