#include "mcsim/analysis/planner.hpp"

#include <gtest/gtest.h>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::analysis {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

TEST(Planner, UnconstrainedGoalPicksCheapest) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const Recommendation rec =
      recommendProvisioning(wf, kAmazon, PlannerGoal{},
                            ProvisioningSweepConfig{.processorCounts = {1, 8, 64}});
  ASSERT_TRUE(rec.feasible);
  // Total cost rises with P (Question 1), so 1 processor is cheapest.
  EXPECT_EQ(rec.choice.processors, 1);
}

TEST(Planner, DeadlineForcesMoreProcessors) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  PlannerGoal goal;
  goal.deadlineSeconds = 1.0 * kSecondsPerHour;  // serial needs ~5.7 h
  const Recommendation rec =
      recommendProvisioning(wf, kAmazon, goal,
                            ProvisioningSweepConfig{.processorCounts = {1, 8, 16, 64}});
  ASSERT_TRUE(rec.feasible);
  EXPECT_GT(rec.choice.processors, 1);
  EXPECT_LE(rec.choice.makespanSeconds, goal.deadlineSeconds);
  // It should still pick the *cheapest* deadline-meeting option, not the
  // fastest.
  EXPECT_LT(rec.choice.processors, 64);
}

TEST(Planner, ImpossibleDeadlineReportedInfeasible) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  PlannerGoal goal;
  goal.deadlineSeconds = 10.0;  // ten seconds: hopeless
  const Recommendation rec = recommendProvisioning(
      wf, kAmazon, goal, ProvisioningSweepConfig{.processorCounts = {1, 8}});
  EXPECT_FALSE(rec.feasible);
  EXPECT_FALSE(rec.rationale.empty());
  // The closest point (fastest) is surfaced.
  EXPECT_EQ(rec.choice.processors, 8);
}

TEST(Planner, TightBudgetReportedInfeasible) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  PlannerGoal goal;
  goal.budget = Money(0.01);
  const Recommendation rec = recommendProvisioning(
      wf, kAmazon, goal, ProvisioningSweepConfig{.processorCounts = {1, 8}});
  EXPECT_FALSE(rec.feasible);
}

TEST(Planner, DefaultLadderUsedWhenEmpty) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const Recommendation rec =
      recommendProvisioning(wf, kAmazon, PlannerGoal{});
  EXPECT_TRUE(rec.feasible);
  EXPECT_FALSE(rec.frontier.empty());
}

TEST(Planner, FrontierIsPareto) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const Recommendation rec =
      recommendProvisioning(wf, kAmazon, PlannerGoal{},
                            ProvisioningSweepConfig{.processorCounts = {1, 2, 4, 8, 16}});
  // Sorted by makespan descending cost: no point dominates another.
  for (std::size_t i = 0; i < rec.frontier.size(); ++i) {
    for (std::size_t j = 0; j < rec.frontier.size(); ++j) {
      if (i == j) continue;
      const bool dominates =
          rec.frontier[j].makespanSeconds <= rec.frontier[i].makespanSeconds &&
          rec.frontier[j].totalCost < rec.frontier[i].totalCost;
      EXPECT_FALSE(dominates) << j << " dominates " << i;
    }
  }
}

TEST(ParetoFrontier, DominatedPointsDropped) {
  ProvisioningPoint fast;
  fast.processors = 8;
  fast.makespanSeconds = 100.0;
  fast.totalCost = Money(10.0);
  ProvisioningPoint cheap;
  cheap.processors = 1;
  cheap.makespanSeconds = 800.0;
  cheap.totalCost = Money(2.0);
  ProvisioningPoint dominated;  // slower AND pricier than `fast`
  dominated.processors = 4;
  dominated.makespanSeconds = 200.0;
  dominated.totalCost = Money(12.0);
  const auto frontier = paretoFrontier({fast, cheap, dominated});
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0].processors, 8);
  EXPECT_EQ(frontier[1].processors, 1);
}

TEST(ParetoFrontier, EmptyInput) {
  EXPECT_TRUE(paretoFrontier({}).empty());
}

}  // namespace
}  // namespace mcsim::analysis
