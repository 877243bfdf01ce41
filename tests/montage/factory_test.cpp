#include "mcsim/montage/factory.hpp"

#include <gtest/gtest.h>

#include <map>

#include "mcsim/dag/algorithms.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::montage {
namespace {

class MontagePreset
    : public ::testing::TestWithParam<std::tuple<double, int, double, double>> {
};

// (degrees, paper task count, paper CPU hours, paper CCR)
INSTANTIATE_TEST_SUITE_P(
    PaperWorkflows, MontagePreset,
    ::testing::Values(std::make_tuple(1.0, 203, 5.6, 0.053),
                      std::make_tuple(2.0, 731, 20.3, 0.053),
                      std::make_tuple(4.0, 3027, 84.0, 0.045)));

TEST_P(MontagePreset, TaskCountMatchesPaper) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_EQ(static_cast<int>(wf.taskCount()), tasks);
}

TEST_P(MontagePreset, CpuHoursCalibrated) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_NEAR(wf.totalRuntimeSeconds() / kSecondsPerHour, cpuHours, 1e-9);
}

TEST_P(MontagePreset, CcrCalibrated) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_NEAR(wf.ccr(kReferenceBandwidthBytesPerSec), ccr, 1e-9);
}

TEST_P(MontagePreset, NineMontageLevels) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_EQ(wf.levelCount(), 9);
  // Level homogeneity (paper §2: "all the tasks at a particular level are
  // invocations of the same routine").
  std::map<int, std::string> routineAtLevel;
  for (const dag::Task& t : wf.tasks()) {
    auto [it, inserted] = routineAtLevel.emplace(t.level, t.type);
    EXPECT_EQ(it->second, t.type)
        << "level " << t.level << " mixes " << it->second << " and " << t.type;
  }
}

TEST_P(MontagePreset, MosaicSizeFixed) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const MontageParams p = paramsForDegrees(deg);
  const dag::Workflow wf = buildMontageWorkflow(p);
  bool found = false;
  for (const dag::File& f : wf.files()) {
    if (f.name == "mosaic.fits") {
      found = true;
      EXPECT_DOUBLE_EQ(f.size.value(), p.mosaicBytes.value());
    }
  }
  EXPECT_TRUE(found);
}

TEST_P(MontagePreset, MosaicIsWorkflowOutput) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  bool mosaicOut = false, jpegOut = false;
  for (dag::FileId f : wf.workflowOutputs()) {
    if (wf.file(f).name == "mosaic.fits") mosaicOut = true;
    if (wf.file(f).name == "mosaic.jpg") jpegOut = true;
  }
  EXPECT_TRUE(mosaicOut);  // explicit output despite mShrink consuming it
  EXPECT_TRUE(jpegOut);
}

TEST_P(MontagePreset, ExternalInputsAreArchiveImagesPlusHeader) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const MontageParams p = paramsForDegrees(deg);
  const dag::Workflow wf = buildMontageWorkflow(p);
  EXPECT_EQ(wf.externalInputs().size(),
            static_cast<std::size_t>(p.imageCount()) + 1);  // + region.hdr
}

TEST(MontageFactory, PresetsHavePaperTaskBreakdown) {
  // 1 degree: 45 mProject + 107 mDiffFit + 45 mBackground + 6 singletons.
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  std::map<std::string, int> byType;
  for (const dag::Task& t : wf.tasks()) byType[t.type]++;
  EXPECT_EQ(byType["mProject"], 45);
  EXPECT_EQ(byType["mDiffFit"], 107);
  EXPECT_EQ(byType["mBackground"], 45);
  EXPECT_EQ(byType["mConcatFit"], 1);
  EXPECT_EQ(byType["mBgModel"], 1);
  EXPECT_EQ(byType["mImgtbl"], 1);
  EXPECT_EQ(byType["mAdd"], 1);
  EXPECT_EQ(byType["mShrink"], 1);
  EXPECT_EQ(byType["mJPEG"], 1);
}

TEST(MontageFactory, Deterministic) {
  const dag::Workflow a = buildMontageWorkflow(2.0);
  const dag::Workflow b = buildMontageWorkflow(2.0);
  ASSERT_EQ(a.taskCount(), b.taskCount());
  EXPECT_DOUBLE_EQ(a.totalFileBytes().value(), b.totalFileBytes().value());
  for (dag::TaskId t = 0; t < a.taskCount(); ++t)
    EXPECT_EQ(a.task(t).parents, b.task(t).parents);
}

TEST(MontageFactory, GenericDegreesInterpolate) {
  const dag::Workflow wf = buildMontageWorkflow(6.0);
  // ~44 images per square degree -> ~1,575 images, >3,000 tasks.
  EXPECT_GT(wf.taskCount(), 3000u);
  EXPECT_NEAR(wf.ccr(kReferenceBandwidthBytesPerSec), 0.045, 1e-9);
  // Mosaic should scale with area: 36 x 173.46 MB ~ 6.24 GB.
  Bytes mosaic;
  for (const dag::File& f : wf.files())
    if (f.name == "mosaic.fits") mosaic = f.size;
  EXPECT_NEAR(mosaic.gb(), 36 * 0.17346, 0.01);
}

TEST(MontageFactory, CriticalPathMuchShorterThanTotal) {
  // The workflow must parallelize well: the paper's 1-degree run drops from
  // 5.5 h serial to 18 min on 128 processors (~18x).  Require the critical
  // path to allow at least a 10x speedup.
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  EXPECT_LT(dag::criticalPathSeconds(wf), wf.totalRuntimeSeconds() / 10.0);
}

TEST(MontageFactory, MaxParallelismCoversWideLevels) {
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  // The mDiffFit level (107 tasks) is the widest.
  EXPECT_EQ(dag::maxLevelWidth(wf), 107u);
  EXPECT_GE(dag::maxParallelism(wf), 45u);
}

TEST(MontageFactory, InvalidParamsRejected) {
  MontageParams p = montage1DegreeParams();
  p.gridCols = 1;
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.diffCount = 100000;  // more than the grid's adjacency supply
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.targetCcr = 1e-9;  // cannot go below the fixed files
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.targetCpuSeconds = -1.0;
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  EXPECT_THROW(paramsForDegrees(0.0), std::invalid_argument);
  EXPECT_THROW(paramsForDegrees(-2.0), std::invalid_argument);
}

// One generator: a survey tile without jitter is the standalone mosaic of
// its size, field for field, apart from the workflow name.  The sizes
// between the presets are where two separately written calibrations would
// round apart.
TEST(MontageFactory, SurveyTileIsTheStandaloneMosaic) {
  for (double degrees : {0.2, 1.0, 1.75, 2.0, 2.5, 3.25, 4.0}) {
    SCOPED_TRACE(degrees);
    workflows::SurveyConfig config;
    config.tileDegrees = degrees;
    const dag::Workflow tile = workflows::buildSurveyTile(config, 0);
    const dag::Workflow mosaic = buildMontageWorkflow(degrees);
    ASSERT_EQ(tile.taskCount(), mosaic.taskCount());
    ASSERT_EQ(tile.fileCount(), mosaic.fileCount());
    for (const dag::Task& x : tile.tasks()) {
      const dag::Task& y = mosaic.task(x.id);
      ASSERT_EQ(x.name, y.name);
      EXPECT_EQ(x.type, y.type);
      EXPECT_EQ(x.runtimeSeconds, y.runtimeSeconds) << x.name;
      EXPECT_EQ(x.earliestStartSeconds, y.earliestStartSeconds) << x.name;
      EXPECT_EQ(x.inputs, y.inputs) << x.name;
      EXPECT_EQ(x.outputs, y.outputs) << x.name;
      EXPECT_EQ(x.parents, y.parents) << x.name;
      EXPECT_EQ(x.children, y.children) << x.name;
      EXPECT_EQ(x.level, y.level) << x.name;
    }
    for (const dag::File& x : tile.files()) {
      const dag::File& y = mosaic.file(x.id);
      ASSERT_EQ(x.name, y.name);
      EXPECT_EQ(x.size.value(), y.size.value()) << x.name;
      EXPECT_EQ(x.producer, y.producer) << x.name;
      EXPECT_EQ(x.consumers, y.consumers) << x.name;
      EXPECT_EQ(x.explicitOutput, y.explicitOutput) << x.name;
    }
    EXPECT_EQ(tile.controlDependencies(), mosaic.controlDependencies());
  }
}

TEST(MontageFactory, ReferenceBandwidthIsTenMegabits) {
  EXPECT_DOUBLE_EQ(kReferenceBandwidthBytesPerSec, 1.25e6);
}

}  // namespace
}  // namespace mcsim::montage
