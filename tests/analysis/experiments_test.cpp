#include "mcsim/analysis/experiments.hpp"

#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::analysis {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

engine::EngineConfig fastLink() {
  engine::EngineConfig cfg;
  cfg.linkBandwidthBytesPerSec = 1e6;
  return cfg;
}

TEST(DefaultLadder, GeometricOneTo128) {
  EXPECT_EQ(defaultProcessorLadder(),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128}));
}

TEST(ProvisioningSweep, OnePointPerProcessorCount) {
  const auto fig = test::makeFigure3Workflow();
  const auto points = provisioningSweep(
      fig.wf, kAmazon, {.processorCounts = {1, 2, 4}, .base = fastLink()});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].processors, 1);
  EXPECT_EQ(points[2].processors, 4);
}

TEST(ProvisioningSweep, CostsDecomposeAndTotalIsPapersDefinition) {
  const auto fig = test::makeFigure3Workflow();
  const auto points = provisioningSweep(
      fig.wf, kAmazon, {.processorCounts = {2}, .base = fastLink()});
  const ProvisioningPoint& p = points[0];
  EXPECT_NEAR(p.totalCost.value(),
              (p.cpuCost + p.storageCost + p.transferCost).value(), 1e-12);
  EXPECT_LE(p.storageCleanupCost, p.storageCost);
  EXPECT_GT(p.cpuCost.value(), 0.0);
}

TEST(ProvisioningSweep, CpuCostIsProcessorsTimesMakespan) {
  const auto fig = test::makeFigure3Workflow();
  const auto points = provisioningSweep(
      fig.wf, kAmazon, {.processorCounts = {1, 4}, .base = fastLink()});
  for (const ProvisioningPoint& p : points) {
    EXPECT_NEAR(p.cpuCost.value(),
                p.processors * p.makespanSeconds * 0.10 / 3600.0, 1e-12);
  }
}

TEST(ProvisioningSweep, TransferCostInvariantAcrossP) {
  // Paper Fig 4: "The data transfer costs are independent of the number of
  // processors provisioned."
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto points =
      provisioningSweep(wf, kAmazon, {.processorCounts = {1, 8, 64}});
  EXPECT_NEAR(points[0].transferCost.value(), points[1].transferCost.value(),
              1e-12);
  EXPECT_NEAR(points[1].transferCost.value(), points[2].transferCost.value(),
              1e-12);
}

TEST(ProvisioningSweep, StorageDeclinesCpuRisesWithP) {
  // Paper Fig 4: "As the number of processors is increased, the storage
  // costs decline but the CPU costs increase."
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto points =
      provisioningSweep(wf, kAmazon, {.processorCounts = {1, 8, 64}});
  EXPECT_GT(points[0].storageCost, points[1].storageCost);
  EXPECT_GT(points[1].storageCost, points[2].storageCost);
  EXPECT_LT(points[0].cpuCost, points[1].cpuCost);
  EXPECT_LT(points[1].cpuCost, points[2].cpuCost);
}

TEST(ProvisioningSweep, HourlyGranularityNeverCheaper) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto perSecond = provisioningSweep(
      wf, kAmazon,
      {.processorCounts = {3},
       .granularity = cloud::BillingGranularity::PerSecond});
  const auto perHour = provisioningSweep(
      wf, kAmazon,
      {.processorCounts = {3},
       .granularity = cloud::BillingGranularity::PerHour});
  EXPECT_GE(perHour[0].cpuCost, perSecond[0].cpuCost);
}

TEST(DataModeComparison, ThreeRowsInPaperOrder) {
  const auto fig = test::makeFigure3Workflow();
  const auto rows = dataModeComparison(fig.wf, kAmazon, {.base = fastLink()});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].mode, engine::DataMode::RemoteIO);
  EXPECT_EQ(rows[1].mode, engine::DataMode::Regular);
  EXPECT_EQ(rows[2].mode, engine::DataMode::DynamicCleanup);
}

TEST(DataModeComparison, CpuCostInvariantAndUsageBilled) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto rows = dataModeComparison(wf, kAmazon, DataModeComparisonConfig{});
  // Usage billing: Σ runtimes x $0.1/h = $0.56 in every mode (Fig 10).
  for (const DataModeMetrics& r : rows)
    EXPECT_NEAR(r.cpuCost.value(), 0.56, 1e-9);
}

TEST(DataModeComparison, MontageOrderings) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto rows = dataModeComparison(wf, kAmazon, DataModeComparisonConfig{});
  const auto& remote = rows[0];
  const auto& regular = rows[1];
  const auto& cleanup = rows[2];
  // Fig 7: storage remote < cleanup < regular; transfers remote highest,
  // regular == cleanup; total remote highest, cleanup lowest.
  EXPECT_LT(remote.storageGBHours, cleanup.storageGBHours);
  EXPECT_LT(cleanup.storageGBHours, regular.storageGBHours);
  EXPECT_GT(remote.bytesIn, regular.bytesIn);
  EXPECT_DOUBLE_EQ(regular.bytesIn.value(), cleanup.bytesIn.value());
  EXPECT_GT(remote.totalCost(), regular.totalCost());
  EXPECT_LE(cleanup.totalCost(), regular.totalCost());
}

TEST(DataModeComparison, ProcessorOverrideRespected) {
  const auto fig = test::makeFigure3Workflow();
  const auto rows = dataModeComparison(
      fig.wf, kAmazon, {.base = fastLink(), .processorOverride = 2});
  // Regular-mode makespan with P=2 differs from full parallelism (P=3).
  const auto wide = dataModeComparison(fig.wf, kAmazon, {.base = fastLink()});
  EXPECT_GT(rows[1].makespanSeconds, wide[1].makespanSeconds);
}

TEST(CcrSweep, HitsRequestedCcrs) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto points =
      ccrSweep(wf, kAmazon, {.ccrTargets = {0.053, 0.5, 2.0}});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].ccr, 0.053);
  EXPECT_DOUBLE_EQ(points[2].ccr, 2.0);
}

TEST(CcrSweep, EverythingRisesWithCcr) {
  // Paper Fig 11: storage, transfer, CPU (longer stage-in) and total all
  // increase with CCR.
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto points =
      ccrSweep(wf, kAmazon, {.ccrTargets = {0.053, 0.5, 2.0, 8.0}});
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].storageCost, points[i - 1].storageCost) << i;
    EXPECT_GT(points[i].transferCost, points[i - 1].transferCost) << i;
    EXPECT_GT(points[i].makespanSeconds, points[i - 1].makespanSeconds) << i;
    EXPECT_GT(points[i].cpuCost, points[i - 1].cpuCost) << i;
    EXPECT_GT(points[i].totalCost, points[i - 1].totalCost) << i;
  }
}

TEST(CcrSweep, CleanupStorageBelowRegular) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const auto points = ccrSweep(wf, kAmazon, {.ccrTargets = {1.0}});
  EXPECT_LT(points[0].storageCleanupCost, points[0].storageCost);
}

TEST(CcrSweep, SourceWorkflowNotMutated) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const double before = wf.ccr(montage::kReferenceBandwidthBytesPerSec);
  ccrSweep(wf, kAmazon, {.ccrTargets = {5.0}});
  EXPECT_DOUBLE_EQ(wf.ccr(montage::kReferenceBandwidthBytesPerSec), before);
}

TEST(CcrSweep, InvalidProcessorsRejected) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  EXPECT_THROW(ccrSweep(wf, kAmazon, {.ccrTargets = {1.0}, .processors = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::analysis
