#include "mcsim/analysis/placement.hpp"

#include <gtest/gtest.h>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::analysis {
namespace {

cloud::Pricing computeCheap() {
  cloud::Pricing p;
  p.providerName = "compute-cheap";
  p.cpuPerHour = Money(0.02);
  p.storagePerGBMonth = Money(1.00);
  p.transferInPerGB = Money(0.10);
  p.transferOutPerGB = Money(0.16);
  return p;
}

cloud::Pricing storageCheap() {
  cloud::Pricing p;
  p.providerName = "storage-cheap";
  p.cpuPerHour = Money(0.50);
  p.storagePerGBMonth = Money(0.02);
  p.transferInPerGB = Money(0.10);
  p.transferOutPerGB = Money(0.16);
  return p;
}

RequestShape shape() {
  RequestShape s;
  s.cpuSeconds = 20.3 * kSecondsPerHour;
  s.inputBytes = Bytes::fromMB(825.0);
  s.productBytes = Bytes::fromMB(557.9);
  return s;
}

TEST(Placement, AllPairingsEvaluated) {
  const auto plans = comparePlacements(shape(), Bytes::fromTB(12.0), 1000.0,
                                       {computeCheap(), storageCheap()});
  EXPECT_EQ(plans.size(), 4u);  // 2 x 2
}

TEST(Placement, SortedCheapestFirst) {
  const auto plans = comparePlacements(shape(), Bytes::fromTB(12.0), 1000.0,
                                       {computeCheap(), storageCheap()});
  for (std::size_t i = 1; i < plans.size(); ++i)
    EXPECT_LE(plans[i - 1].monthlyTotal, plans[i].monthlyTotal);
}

TEST(Placement, SplitPlacementWinsWhenMarketIsSplit) {
  // Expensive archive at compute-cheap ($12k/mo for 12 TB) vs cheap archive
  // at storage-cheap ($240/mo): the split plan pays cross-provider
  // transfers but saves on both big-ticket items.
  const auto plans = comparePlacements(shape(), Bytes::fromTB(12.0), 1000.0,
                                       {computeCheap(), storageCheap()});
  EXPECT_EQ(plans[0].computeProvider, "compute-cheap");
  EXPECT_EQ(plans[0].archiveProvider, "storage-cheap");
  EXPECT_FALSE(plans[0].colocated);
}

TEST(Placement, ColocationSkipsInterProviderTransfer) {
  const auto plans = comparePlacements(shape(), Bytes::fromTB(12.0), 100.0,
                                       {computeCheap()});
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].colocated);
  // Only the product egress is paid.
  EXPECT_NEAR(plans[0].transferPerRequest.value(), 0.5579 * 0.16, 1e-6);
}

TEST(Placement, CrossProviderPaysEgressAndIngress) {
  const auto plans = comparePlacements(shape(), Bytes::fromTB(12.0), 100.0,
                                       {computeCheap(), storageCheap()});
  for (const PlacementPlan& plan : plans) {
    if (plan.colocated) continue;
    // 0.825 GB x ($0.16 out + $0.10 in) + product egress.
    EXPECT_NEAR(plan.transferPerRequest.value(),
                0.825 * 0.26 + 0.5579 * 0.16, 1e-6);
  }
}

TEST(Placement, ZeroVolumeReducesToArchiveFee) {
  const auto plans = comparePlacements(shape(), Bytes::fromTB(1.0), 0.0,
                                       {computeCheap(), storageCheap()});
  for (const PlacementPlan& plan : plans)
    EXPECT_DOUBLE_EQ(plan.monthlyTotal.value(), plan.archiveMonthly.value());
}

TEST(Placement, ShapeFromWorkflowUsesAggregates) {
  const auto wf = montage::buildMontageWorkflow(2.0);
  const RequestShape s = shapeFromWorkflow(wf);
  EXPECT_NEAR(s.cpuSeconds, 20.3 * kSecondsPerHour, 1e-6);
  EXPECT_NEAR(s.inputBytes.value(), wf.externalInputBytes().value(), 1.0);
  EXPECT_NEAR(s.productBytes.value(), wf.workflowOutputBytes().value(), 1.0);
}

TEST(Placement, AmazonAloneMatchesQ2bArithmetic) {
  // With a single provider the best plan's monthly total reduces to the
  // paper's archive + per-request math.
  const auto amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const auto plans =
      comparePlacements(shape(), Bytes::fromTB(12.0), 18000.0, {amazon});
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_NEAR(plans[0].archiveMonthly.value(), 1800.0, 1e-9);
  EXPECT_NEAR(plans[0].computePerRequest.value(), 2.03, 1e-9);
}

TEST(Placement, InvalidInputsRejected) {
  EXPECT_THROW(comparePlacements(shape(), Bytes::fromTB(1.0), 10.0, {}),
               std::invalid_argument);
  EXPECT_THROW(comparePlacements(shape(), Bytes::fromTB(1.0), -5.0,
                                 {computeCheap()}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::analysis
