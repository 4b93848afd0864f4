// Tests of the benchmark's own code: metric-name grammar, span self-time
// arithmetic, check counting, and the traced run's CPU accounting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "driver/report.h"
#include "driver/spans.h"
#include "driver/workloads.h"

namespace perfbench {
namespace {

TEST(MetricNames, EveryEmittedNameAndUnitFollowsTheGrammar) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const Metric& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(valid_unit(m.unit)) << m.name << " unit " << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_EQ(end_to_end_metrics().size(), 3u);
  EXPECT_GE(per_layer_metrics().size(), 30u);
}

TEST(MetricNames, GrammarRejectsMalformedNames) {
  EXPECT_TRUE(valid_metric_name("backends.ops_per_step.mv2-gdr"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("-leading-dash"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("us/op"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("items per s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

Span span(std::uint32_t name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.parent = parent;
  return s;
}

TEST(SpanSelfTime, NestedChainSubtractsDirectChildrenOnly) {
  // root [0,10] > child [2,6] > grandchild [3,4]
  const std::vector<double> self =
      self_times({span(0, 0, 10, -1), span(1, 2, 6, 0), span(2, 3, 4, 1)});
  ASSERT_EQ(self.size(), 3u);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 10.0);  // self times partition the root
}

TEST(SpanSelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [1,5] and [4,8] overlap on [4,5]; [9,12] overhangs the parent.
  const std::vector<double> self =
      self_times({span(0, 0, 10, -1), span(1, 1, 5, 0), span(1, 4, 8, 0), span(1, 9, 12, 0)});
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 4.0);
}

TEST(SpanSelfTime, SiblingRetriesAreBothSubtracted) {
  // A route stage that re-invokes issue twice (a retry).
  const std::vector<double> self =
      self_times({span(0, 0, 10, -1), span(1, 1, 3, 0), span(1, 5, 9, 0)});
  EXPECT_DOUBLE_EQ(self[0], 4.0);
}

TEST(SpanRecorder, FoldsPerOperationAndSelfTimesSumToRoots) {
  SpanRecorder rec({"outer", "inner"}, 100);
  for (int op = 0; op < 3; ++op) {
    rec.open(0);
    volatile double sink = 0.0;
    for (int i = 0; i < 20000; ++i) sink = sink + i;
    rec.open(1);
    for (int i = 0; i < 20000; ++i) sink = sink + i;
    rec.close();
    rec.close();
  }
  EXPECT_EQ(rec.ops(), 3u);
  EXPECT_GT(rec.self_us(0), 0.0);
  EXPECT_GT(rec.self_us(1), 0.0);
  EXPECT_NEAR(rec.self_us(0) + rec.self_us(1), rec.root_us(), 1e-6 * rec.root_us() + 1e-9);
  // Spans opened on another thread start their own operation.
  std::thread other([&] {
    rec.open(1);
    rec.close();
  });
  other.join();
  EXPECT_EQ(rec.ops(), 4u);
}

TEST(Checks, ForcedAnchorMismatchCountsInFailShare) {
  Checks checks;
  const Anchors expected = {{"virtual_step_us", 1234.5}, {"completed", 19000.0}};
  check_anchors(expected, {{"virtual_step_us", 1234.5}, {"completed", 19000.0}}, "step 1", checks);
  // Last-bit differences from summing virtual time at other instants pass.
  check_anchors(expected, {{"virtual_step_us", 1234.5 * (1 + 1e-13)}, {"completed", 19000.0}},
                "step 2", checks);
  EXPECT_EQ(checks.attempted(), 2u);
  EXPECT_EQ(checks.failed(), 0u);
  // A forced mismatch (plus a missing anchor) fails that step's one check.
  check_anchors(expected, {{"virtual_step_us", 1234.6}}, "step 3", checks);
  check_anchors(expected, expected, "step 4", checks);
  EXPECT_EQ(checks.attempted(), 4u);
  EXPECT_EQ(checks.failed(), 1u);
  EXPECT_DOUBLE_EQ(checks.fail_share(), 0.25);
  ASSERT_EQ(checks.messages().size(), 1u);
  const std::string& why = checks.messages()[0];
  EXPECT_NE(why.find("step 3"), std::string::npos) << why;
  EXPECT_NE(why.find("virtual_step_us expected 1234.5 got 1234.5999999999999"), std::string::npos)
      << why;
  EXPECT_NE(why.find("completed expected 19000 got nothing"), std::string::npos) << why;

  Result result;
  result.checks = checks;
  const std::string json = result_json(result);
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"attempted\": 4, \"failed\": 1"), std::string::npos) << json;
}

TEST(Checks, RunWithoutChecksIsNotCorrect) {
  const std::string json = result_json(Result{});
  EXPECT_NE(json.find("\"correct\": false, \"attempted\": 1, \"failed\": 1"), std::string::npos)
      << json;
}

const Metric& metric(const Result& r, const std::string& name) {
  const Metric* m = r.find(name);
  EXPECT_NE(m, nullptr) << name;
  static const Metric missing;
  return m ? *m : missing;
}

TEST(TracedRun, PerLayerCpuNeverExceedsTotalActorCpu) {
  Options opts;
  opts.workload = "dispatch";
  opts.seed = 3;
  opts.seconds = 0.6;
  opts.trace = true;
  opts.setup_reps = 1;
  opts.setup_budget_s = 0.0;
  const Result r = run_workload(opts);
  EXPECT_EQ(r.checks.failed(), 0u) << (r.checks.messages().empty() ? "" : r.checks.messages()[0]);
  ASSERT_EQ(r.metrics.size(), per_layer_metrics().size());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(r.metrics[i].name, per_layer_metrics()[i].name);
  }
  // Stage self times partition the root spans, which are actor CPU.
  const double per_op = metric(r, "core.pre_issue_cpu_us_per_op").value +
                        metric(r, "backends.issue_cpu_us_per_op").value;
  EXPECT_GT(per_op, 0.0);
  const double coverage = metric(r, "trace.cpu_coverage").value;
  EXPECT_GT(coverage, 0.0);
  EXPECT_LE(coverage, 1.0);
  EXPECT_GT(metric(r, "backends.issue_cpu_us_per_op").value, 0.0);
  EXPECT_GT(metric(r, "core.pre_issue_cpu_us_per_op").value, 0.0);
  EXPECT_GT(metric(r, "backends.ops_per_step.nccl").value, 0.0);
  EXPECT_GT(metric(r, "backends.ops_per_step.mv2-gdr").value, 0.0);
  EXPECT_GT(metric(r, "tune.table_gen_s").value, 0.0);
}

TEST(UntracedRun, PayloadValuesVerifyAndEndToEndMetricsAreSet) {
  Options opts;
  opts.workload = "payload";
  opts.seed = 5;
  opts.seconds = 0.5;
  opts.setup_reps = 1;
  opts.setup_budget_s = 0.0;
  const Result r = run_workload(opts);
  EXPECT_EQ(r.checks.failed(), 0u) << (r.checks.messages().empty() ? "" : r.checks.messages()[0]);
  EXPECT_GT(r.checks.attempted(), 8u);  // one value check per rank per window, at least
  ASSERT_EQ(r.metrics.size(), end_to_end_metrics().size());
  for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0.0) << m.name;
  EXPECT_GT(r.anchors.at("virtual_us_first_cycles"), 0.0);
}

}  // namespace
}  // namespace perfbench
