// Differential + reconciliation tests for the critical-path explainer.
//
// The simulated critical path is checked against the analytic
// dag::criticalPathSeconds bound: with zero contention and no data movement
// the two agree *exactly*; with contention, staging or faults the simulated
// path can only be longer.  Independently, the makespan tiling and the cost
// split must always reconcile with report.json's authoritative totals.
#include "mcsim/analysis/explain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "tests/common/json.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/report.hpp"

namespace mcsim::analysis {
namespace {

/// Run `wf`, folding spans and billing line items from the same stream.
struct ExplainedRun {
  engine::ExecutionResult result;
  obs::TraceStore store;
  Explanation explanation;
};

ExplainedRun explainWorkflow(const dag::Workflow& wf, engine::EngineConfig cfg,
                             cloud::CpuBillingMode billing =
                                 cloud::CpuBillingMode::Provisioned) {
  ExplainedRun run;
  obs::SpanSink spans(run.store, traceTopology(wf));
  obs::ReportBuilder lineItems;
  obs::FanOutSink fan({&spans, &lineItems});
  cfg.observer = &fan;
  run.result = engine::simulateWorkflow(wf, cfg);
  const obs::RunReport report = lineItems.build(
      wf, run.result, cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
      billing);
  run.explanation = explainRun(wf, run.store, report);
  return run;
}

/// Control-dependency-only diamond (no files, so no staging time):
/// a(10) -> {b(20), c(35)} -> d(5); analytic critical path = 50 s.
dag::Workflow diamondDag() {
  dag::Workflow wf("diamond");
  const auto a = wf.addTask("a", "gen", 10.0);
  const auto b = wf.addTask("b", "work", 20.0);
  const auto c = wf.addTask("c", "work", 35.0);
  const auto d = wf.addTask("d", "join", 5.0);
  wf.addControlDependency(a, b);
  wf.addControlDependency(a, c);
  wf.addControlDependency(b, d);
  wf.addControlDependency(c, d);
  wf.finalize();
  return wf;
}

void expectTilesMakespan(const Explanation& e, double tol = 1e-9) {
  const auto& segs = e.path.segments;
  ASSERT_FALSE(segs.empty());
  EXPECT_NEAR(segs.front().beginSeconds, 0.0, tol);
  EXPECT_NEAR(segs.back().endSeconds, e.makespanSeconds, tol);
  double sum = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_LE(segs[i].beginSeconds, segs[i].endSeconds) << "segment " << i;
    if (i > 0) {
      EXPECT_NEAR(segs[i].beginSeconds, segs[i - 1].endSeconds, tol)
          << "segment " << i << " not contiguous";
    }
    sum += segs[i].seconds();
  }
  EXPECT_NEAR(sum, e.makespanSeconds, 1e-6);
  double bucketSum = 0.0;
  for (double s : e.bucketSeconds) bucketSum += s;
  EXPECT_NEAR(bucketSum, e.makespanSeconds, 1e-6);
}

void expectCostsReconcile(const Explanation& e) {
  const double split = e.criticalCost.value() + e.slackCost.value() +
                       e.stagingCost.value() + e.unattributedCost.value();
  EXPECT_NEAR(split, e.totalCost.value(), 1e-6);
  // The per-task table covers exactly the critical tasks, and the by-type
  // drill-down is a regrouping of the same rows.
  EXPECT_EQ(e.tasks.size(), e.criticalTasks);
  EXPECT_EQ(e.path.taskOrder.size(), e.criticalTasks);
  double taskSeconds = 0.0;
  for (const TaskShare& t : e.tasks) taskSeconds += t.criticalSeconds;
  double typeSeconds = 0.0;
  std::size_t typeTasks = 0;
  for (const TypeShare& t : e.byType) {
    typeSeconds += t.criticalSeconds;
    typeTasks += t.tasks;
  }
  EXPECT_NEAR(taskSeconds, typeSeconds, 1e-9);
  EXPECT_EQ(typeTasks, e.criticalTasks);
}

TEST(ExplainDifferential, NoContentionAgreesExactlyWithAnalyticBound) {
  const dag::Workflow wf = diamondDag();
  const double analytic = dag::criticalPathSeconds(wf);
  ASSERT_DOUBLE_EQ(analytic, 50.0);

  engine::EngineConfig cfg;
  cfg.processors = static_cast<int>(dag::maxParallelism(wf));
  const ExplainedRun run = explainWorkflow(wf, cfg);

  // Enough processors, no files, no faults: the simulation IS the analytic
  // critical path, to the bit.
  EXPECT_DOUBLE_EQ(run.result.makespanSeconds, analytic);
  EXPECT_DOUBLE_EQ(run.explanation.makespanSeconds, analytic);
  const auto& buckets = run.explanation.bucketSeconds;
  EXPECT_DOUBLE_EQ(buckets[static_cast<std::size_t>(CostBucket::Compute)],
                   analytic);
  EXPECT_DOUBLE_EQ(buckets[static_cast<std::size_t>(CostBucket::QueueWait)],
                   0.0);
  EXPECT_DOUBLE_EQ(buckets[static_cast<std::size_t>(CostBucket::Gap)], 0.0);
  expectTilesMakespan(run.explanation);
  expectCostsReconcile(run.explanation);

  // The path is a -> c -> d (the 35 s branch).
  ASSERT_EQ(run.explanation.path.taskOrder.size(), 3u);
  EXPECT_EQ(run.explanation.path.taskOrder[0], 0u);  // a
  EXPECT_EQ(run.explanation.path.taskOrder[1], 2u);  // c
  EXPECT_EQ(run.explanation.path.taskOrder[2], 3u);  // d
}

TEST(ExplainDifferential, ContentionCanOnlyLengthenThePath) {
  const dag::Workflow wf = diamondDag();
  const double analytic = dag::criticalPathSeconds(wf);

  engine::EngineConfig cfg;
  cfg.processors = 1;  // b and c serialize
  const ExplainedRun run = explainWorkflow(wf, cfg);

  EXPECT_GE(run.result.makespanSeconds, analytic);
  // One processor: makespan is the serialized sum of all runtimes.
  EXPECT_DOUBLE_EQ(run.result.makespanSeconds, 70.0);
  // The extra 20 s surface as queue-wait on the path, not as a mystery gap.
  const auto& buckets = run.explanation.bucketSeconds;
  EXPECT_NEAR(buckets[static_cast<std::size_t>(CostBucket::QueueWait)], 20.0,
              1e-9);
  expectTilesMakespan(run.explanation);
  expectCostsReconcile(run.explanation);
}

TEST(ExplainDifferential, FaultsCanOnlyLengthenThePath) {
  const dag::Workflow wf = diamondDag();
  const double analytic = dag::criticalPathSeconds(wf);

  engine::EngineConfig cfg;
  cfg.processors = static_cast<int>(dag::maxParallelism(wf));
  cfg.faults.processor.mtbfSeconds = 20.0;  // expect a few crashes in 70 s
  cfg.faults.retry.maxRetries = 10;
  cfg.faults.retry.delaySeconds = 1.0;
  cfg.faults.seed = 7;
  const ExplainedRun run = explainWorkflow(wf, cfg);

  ASSERT_EQ(run.result.tasksFailed, 0u);
  EXPECT_GE(run.result.makespanSeconds, analytic);
  expectTilesMakespan(run.explanation);
  expectCostsReconcile(run.explanation);
}

TEST(ExplainMontage, AllDataModesTileAndReconcile) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const double analytic = dag::criticalPathSeconds(wf);

  for (const engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    SCOPED_TRACE(engine::dataModeName(mode));
    engine::EngineConfig cfg;
    cfg.mode = mode;
    cfg.processors = 8;
    const ExplainedRun run = explainWorkflow(wf, cfg);

    // Staging and contention make the simulated path >= the runtime-only
    // analytic bound.
    EXPECT_GE(run.explanation.makespanSeconds, analytic);
    EXPECT_DOUBLE_EQ(run.explanation.makespanSeconds,
                     run.result.makespanSeconds);
    expectTilesMakespan(run.explanation, 1e-7);
    expectCostsReconcile(run.explanation);
    EXPECT_GT(run.explanation.criticalTasks, 0u);
    EXPECT_EQ(run.explanation.totalTasks, wf.taskCount());
    EXPECT_EQ(run.explanation.mode, engine::dataModeName(mode));
  }
}

TEST(ExplainMontage, UsageBillingReconcilesToo) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  engine::EngineConfig cfg;
  cfg.processors = 4;
  const ExplainedRun run =
      explainWorkflow(wf, cfg, cloud::CpuBillingMode::Usage);
  expectTilesMakespan(run.explanation, 1e-7);
  expectCostsReconcile(run.explanation);
  // Usage billing has no provisioned-but-idle surplus.
  EXPECT_NEAR(run.explanation.unattributedCost.value(), 0.0, 1e-9);
  EXPECT_EQ(run.explanation.billing, "usage");
}

TEST(ExplainOutput, JsonDocumentParsesAndMatchesExplanation) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  engine::EngineConfig cfg;
  cfg.processors = 4;
  const ExplainedRun run = explainWorkflow(wf, cfg);

  std::ostringstream os;
  writeExplanationJson(os, run.explanation);
  const test::JsonValue doc = test::parseJson(os.str());
  EXPECT_EQ(doc.at("schema").asString(), "mcsim.explain.v1");
  EXPECT_NEAR(doc.at("makespan_seconds").asNumber(),
              run.explanation.makespanSeconds, 1e-9);
  EXPECT_NEAR(doc.at("cost").at("total").asNumber(),
              run.explanation.totalCost.value(), 1e-9);
  EXPECT_EQ(static_cast<std::size_t>(doc.at("critical_tasks").asNumber()),
            run.explanation.criticalTasks);
  EXPECT_EQ(doc.at("tasks").asArray().size(), run.explanation.tasks.size());

  std::ostringstream table;
  printExplanation(table, run.explanation, 5);
  EXPECT_NE(table.str().find("critical path"), std::string::npos);
}

TEST(ExplainEdge, EmptyTraceYieldsOneGapSegment) {
  obs::TraceStore empty;
  const CriticalPath path = extractCriticalPath(empty, 42.0);
  ASSERT_EQ(path.segments.size(), 1u);
  EXPECT_EQ(path.segments[0].bucket, CostBucket::Gap);
  EXPECT_DOUBLE_EQ(path.segments[0].seconds(), 42.0);
  EXPECT_TRUE(path.taskOrder.empty());
}

}  // namespace
}  // namespace mcsim::analysis
