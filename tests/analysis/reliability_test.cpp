// The reliability experiment: structure, determinism and the cost ordering
// the paper's §8 concern implies — unreliable processors never make a run
// cheaper.
#include "mcsim/analysis/reliability.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::analysis {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

ReliabilityConfig smallSweep() {
  ReliabilityConfig rc;
  rc.mtbfSeconds = {7200.0, 1800.0};
  rc.retry.maxRetries = 20;
  rc.retry.delaySeconds = 5.0;
  rc.faultSeed = 11;
  rc.processorOverride = 8;
  return rc;
}

TEST(ReliabilitySweep, CoversAllModesWithBaselines) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  const auto points =
      reliabilitySweep(wf, kAmazon, smallSweep());
  ASSERT_EQ(points.size(), 9u);  // 3 modes x (baseline + 2 MTBF values)

  for (std::size_t i = 0; i < points.size(); i += 3) {
    const ReliabilityPoint& base = points[i];
    EXPECT_DOUBLE_EQ(base.mtbfSeconds, 0.0);
    EXPECT_EQ(base.processorCrashes, 0u);
    EXPECT_TRUE(base.completed);
    EXPECT_DOUBLE_EQ(base.faultFreeTotal.value(), base.totalCost.value());
    for (std::size_t j = i + 1; j < i + 3; ++j) {
      EXPECT_EQ(points[j].mode, base.mode);
      EXPECT_GT(points[j].mtbfSeconds, 0.0);
      // Faults never make the run cheaper: waste is billed, remote retries
      // re-stage, and survivors keep their storage longer.
      EXPECT_GE(points[j].totalCost.value(), base.totalCost.value() - 1e-9);
      EXPECT_GE(points[j].costOverheadFraction(), -1e-9);
    }
  }
  // The harsher MTBF crashes at least as often as the gentler one.
  EXPECT_GE(points[2].processorCrashes, points[1].processorCrashes);
}

TEST(ReliabilitySweep, IsDeterministic) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  const auto a =
      reliabilitySweep(wf, kAmazon, smallSweep());
  const auto b =
      reliabilitySweep(wf, kAmazon, smallSweep());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].totalCost.value(), b[i].totalCost.value());
    EXPECT_EQ(a[i].processorCrashes, b[i].processorCrashes);
    EXPECT_DOUBLE_EQ(a[i].makespanSeconds, b[i].makespanSeconds);
  }
}

TEST(ReliabilitySweep, RejectsNonPositiveMtbf) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  ReliabilityConfig rc = smallSweep();
  rc.mtbfSeconds = {0.0};
  EXPECT_THROW(reliabilitySweep(wf, kAmazon, rc),
               std::invalid_argument);
}

TEST(ReliabilityTable, RendersOneRowPerPoint) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  const auto points =
      reliabilitySweep(wf, kAmazon, smallSweep());
  std::ostringstream os;
  reliabilityTable(points).print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("remote-io"), std::string::npos);
  EXPECT_NE(text.find("cleanup"), std::string::npos);
  EXPECT_NE(text.find("overhead"), std::string::npos);
}

}  // namespace
}  // namespace mcsim::analysis
