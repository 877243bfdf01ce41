// Cross-validation of the analytic cost model against the simulator: the
// proven bounds must bracket every simulated Regular-mode run, on Montage,
// the gallery and random DAGs.
#include "mcsim/analysis/model.hpp"

#include <gtest/gtest.h>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::analysis {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

void expectBracketsSimulation(const dag::Workflow& wf, int processors) {
  const AnalyticEstimate est =
      estimateRegularRun(wf, processors, kAmazon);
  engine::EngineConfig cfg;
  cfg.processors = processors;
  cfg.mode = engine::DataMode::Regular;
  const auto sim = engine::simulateWorkflow(wf, cfg);

  EXPECT_LE(est.makespanLowerSeconds, sim.makespanSeconds + 1e-6)
      << wf.name() << " P=" << processors;
  EXPECT_GE(est.makespanUpperSeconds, sim.makespanSeconds - 1e-6)
      << wf.name() << " P=" << processors;
  EXPECT_NEAR(est.bytesIn.value(), sim.bytesIn.value(), 1.0);
  EXPECT_NEAR(est.bytesOut.value(), sim.bytesOut.value(), 1.0);
  EXPECT_NEAR(est.cpuUsage.value(),
              kAmazon.cpuCost(sim.cpuBusySeconds).value(), 1e-9);
  EXPECT_GE(est.storageUpperBound.value(),
            kAmazon.storageCost(sim.storageByteSeconds).value() - 1e-12);
}

TEST(AnalyticModel, BracketsMontagePresets) {
  for (double deg : {1.0, 2.0}) {
    const auto wf = montage::buildMontageWorkflow(deg);
    for (int p : {1, 8, 64}) expectBracketsSimulation(wf, p);
  }
}

TEST(AnalyticModel, BracketsGalleryWorkflows) {
  for (const dag::Workflow& wf : workflows::buildGallery())
    for (int p : {1, 16}) expectBracketsSimulation(wf, p);
}

TEST(AnalyticModel, BracketsRandomDags) {
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    const auto wf = dag::makeRandomWorkflow(seed);
    for (int p : {1, 4}) expectBracketsSimulation(wf, p);
  }
}

TEST(AnalyticModel, EstimateCloseToSimulationOnMontage) {
  // The point estimate should be useful, not just a bound: within 25% of
  // the simulated makespan across the ladder.
  const auto wf = montage::buildMontageWorkflow(1.0);
  for (int p : {1, 4, 16, 64}) {
    const AnalyticEstimate est = estimateRegularRun(wf, p, kAmazon);
    engine::EngineConfig cfg;
    cfg.processors = p;
    const auto sim = engine::simulateWorkflow(wf, cfg);
    EXPECT_NEAR(est.makespanEstimateSeconds, sim.makespanSeconds,
                0.25 * sim.makespanSeconds)
        << p << " procs";
  }
}

TEST(AnalyticModel, TransferCostExactForRegularMode) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const AnalyticEstimate est = estimateRegularRun(wf, 8, kAmazon);
  engine::EngineConfig cfg;
  cfg.processors = 8;
  const auto sim = engine::simulateWorkflow(wf, cfg);
  const auto cost =
      engine::computeCost(sim, kAmazon, cloud::CpuBillingMode::Usage);
  EXPECT_NEAR(est.transferCost.value(), cost.transfer().value(), 1e-9);
}

TEST(AnalyticModel, SerialEstimateNearlyExact) {
  // At P=1 the compute phase is exactly the total work, so the estimate
  // should land within the stage-in overlap slack.
  const auto wf = montage::buildMontageWorkflow(2.0);
  const AnalyticEstimate est = estimateRegularRun(wf, 1, kAmazon);
  engine::EngineConfig cfg;
  cfg.processors = 1;
  const auto sim = engine::simulateWorkflow(wf, cfg);
  EXPECT_NEAR(est.makespanEstimateSeconds, sim.makespanSeconds,
              0.02 * sim.makespanSeconds);
}

TEST(AnalyticModel, InvalidArgumentsRejected) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  EXPECT_THROW(estimateRegularRun(wf, 0, kAmazon), std::invalid_argument);
  EXPECT_THROW(estimateRegularRun(wf, 4, kAmazon, 0.0), std::invalid_argument);
}

TEST(AnalyticModel, EmptyWorkflow) {
  dag::Workflow wf("empty");
  wf.finalize();
  const AnalyticEstimate est = estimateRegularRun(wf, 4, kAmazon);
  EXPECT_DOUBLE_EQ(est.makespanLowerSeconds, 0.0);
  EXPECT_DOUBLE_EQ(est.cpuUsage.value(), 0.0);
}

}  // namespace
}  // namespace mcsim::analysis
