// Cross-module integration: DAX persistence feeding the engine, the planner
// driving real sweeps, and trace rendering on real runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "tests/common/traced.hpp"
#include "mcsim/analysis/economics.hpp"
#include "mcsim/analysis/planner.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/dax.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/engine/trace.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

TEST(EndToEnd, DaxRoundTripPreservesSimulationResults) {
  const dag::Workflow original = montage::buildMontageWorkflow(1.0);
  const dag::Workflow reloaded = dag::readDax(dag::writeDax(original));

  engine::EngineConfig cfg;
  cfg.processors = 8;
  for (engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    cfg.mode = mode;
    const auto a = engine::simulateWorkflow(original, cfg);
    const auto b = engine::simulateWorkflow(reloaded, cfg);
    EXPECT_NEAR(a.makespanSeconds, b.makespanSeconds, 1e-6)
        << engine::dataModeName(mode);
    EXPECT_NEAR(a.storageByteSeconds, b.storageByteSeconds, 1.0);
    EXPECT_NEAR(a.bytesIn.value(), b.bytesIn.value(), 1.0);
    EXPECT_NEAR(a.bytesOut.value(), b.bytesOut.value(), 1.0);
  }
}

TEST(EndToEnd, DaxFileOnDiskDrivesPlanner) {
  const std::string path = ::testing::TempDir() + "/montage1.dax";
  dag::writeDaxFile(montage::buildMontageWorkflow(1.0), path);
  const dag::Workflow wf = dag::readDaxFile(path);

  analysis::PlannerGoal goal;
  goal.deadlineSeconds = 2.0 * kSecondsPerHour;
  const auto rec =
      analysis::recommendProvisioning(wf, kAmazon, goal,
                                      analysis::ProvisioningSweepConfig{.processorCounts = {1, 4, 16, 64}});
  EXPECT_TRUE(rec.feasible);
  EXPECT_LE(rec.choice.makespanSeconds, goal.deadlineSeconds);
  std::remove(path.c_str());
}

TEST(EndToEnd, TraceRenderingOnRealRun) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  engine::EngineConfig cfg;
  cfg.processors = 16;
  const auto [result, trace] = test::simulateTraced(wf, cfg);

  std::ostringstream levels;
  engine::printLevelSummary(levels, wf, trace);
  // All nine Montage routines appear in the level summary.
  for (const char* routine :
       {"mProject", "mDiffFit", "mConcatFit", "mBgModel", "mBackground",
        "mImgtbl", "mAdd", "mShrink", "mJPEG"}) {
    EXPECT_NE(levels.str().find(routine), std::string::npos) << routine;
  }

  std::ostringstream gantt;
  engine::printGantt(gantt, wf, trace, 20, 60);
  EXPECT_NE(gantt.str().find('#'), std::string::npos);

  const std::string summary = engine::summarize(wf, result);
  EXPECT_NE(summary.find("montage-1deg"), std::string::npos);
  EXPECT_NE(summary.find("16 proc"), std::string::npos);
}

TEST(EndToEnd, TraceHelpersRejectUntracedResults) {
  // An untraced run leaves its span store empty; the renderers refuse it.
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  engine::EngineConfig cfg;
  cfg.processors = 4;
  const auto result = engine::simulateWorkflow(wf, cfg);
  const obs::TraceStore untraced;
  std::ostringstream os;
  EXPECT_THROW(engine::printLevelSummary(os, wf, untraced),
               std::invalid_argument);
  EXPECT_THROW(engine::printGantt(os, wf, untraced), std::invalid_argument);
  // summarize works without tracing.
  EXPECT_FALSE(engine::summarize(wf, result).empty());
}

TEST(EndToEnd, FeeStructureFlipsDataModeRanking) {
  // The paper's conjecture (§6 Q2a): "If the storage charges were higher
  // and transfer costs were lower, it is possible that the Remote I/O mode
  // would have resulted in the least total cost of the three."
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const auto amazonRows = analysis::dataModeComparison(
      wf, kAmazon, analysis::DataModeComparisonConfig{});
  EXPECT_GT(amazonRows[0].dataManagementCost(),
            amazonRows[2].dataManagementCost());  // remote > cleanup

  const auto flippedRows = analysis::dataModeComparison(
      wf, cloud::ProviderCatalog::builtin().pricing("storage-heavy"),
      analysis::DataModeComparisonConfig{});
  EXPECT_LT(flippedRows[0].dataManagementCost(),
            flippedRows[1].dataManagementCost());  // remote < regular
}

TEST(EndToEnd, CustomWorkflowThroughWholeStack) {
  // A user-built (non-Montage) workflow runs through sweep, comparison and
  // economics without any Montage-specific assumptions.
  dag::Workflow wf("custom-pipeline");
  const dag::FileId raw = wf.addFile("raw.dat", Bytes::fromGB(1.0));
  const dag::TaskId split = wf.addTask("split", "split", 60.0);
  wf.addInput(split, raw);
  std::vector<dag::FileId> shards;
  for (int i = 0; i < 6; ++i) {
    const dag::FileId s =
        wf.addFile("shard" + std::to_string(i), Bytes::fromMB(150.0));
    wf.addOutput(split, s);
    shards.push_back(s);
  }
  const dag::TaskId merge = wf.addTask("merge", "merge", 120.0);
  for (dag::FileId s : shards) {
    const dag::TaskId t = wf.addTask("proc" + std::to_string(s), "proc", 300.0);
    wf.addInput(t, s);
    const dag::FileId o =
        wf.addFile("out" + std::to_string(s), Bytes::fromMB(80.0));
    wf.addOutput(t, o);
    wf.addInput(merge, o);
  }
  const dag::FileId product = wf.addFile("product", Bytes::fromMB(200.0));
  wf.addOutput(merge, product);
  wf.finalize();

  const auto pts = analysis::provisioningSweep(
      wf, kAmazon, {.processorCounts = {1, 2, 6}});
  EXPECT_LT(pts[2].makespanSeconds, pts[0].makespanSeconds);
  const auto rows = analysis::dataModeComparison(
      wf, kAmazon, analysis::DataModeComparisonConfig{});
  EXPECT_EQ(rows.size(), 3u);
  const auto decision = analysis::mosaicArchivalDecision(
      rows[1].cpuCost, Bytes::fromMB(200.0), kAmazon);
  EXPECT_GT(decision.breakEvenMonths, 0.0);
}

}  // namespace
}  // namespace mcsim
