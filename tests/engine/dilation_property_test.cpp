// Exact dilation relations of the cost model.  Scaling by a power of two is
// exact in binary floating point, so stretching a run's time axis or its
// byte axis must move every output by exactly that factor:
//
//   * time: every runtime x2 and the bandwidth /2 — every duration doubles,
//     so makespan, CPU-seconds, processor-seconds and storage byte-seconds
//     double while bytes moved and peak storage stay put;
//   * size: every file size x2 and the bandwidth x2 — every duration stays
//     put, so makespan and CPU-seconds are unchanged while bytes moved, peak
//     storage and storage byte-seconds double.
//
// Each per-second fee line follows its quantity.  A third relation holds
// the pool size: more processors move makespan but not what is computed or
// moved, so CPU-seconds equal the 1-processor run's, and the workflow's
// total runtime, in every mode, and bytes in and out equal it in Regular
// and Cleanup.  The relations are checked with ==, no tolerance, over the
// Montage presets and seeded random DAGs, in every data mode under both
// link-sharing policies, without faults.
//
// Fee linearity holds the run fixed and moves the prices: a rate is divided
// by constants and multiplied by a quantity, so doubling every rate doubles
// every component of a per-second bill, every attributed cost of a run
// report, and every total `optimize` ranks, which keeps its ranking.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/analysis/placement.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/report.hpp"

namespace mcsim::engine {
namespace {

struct Case {
  DataMode mode;
  sim::LinkSharing sharing;
  int processors;
};

std::vector<Case> allCases() {
  std::vector<Case> cases;
  for (DataMode mode :
       {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup})
    for (sim::LinkSharing sharing :
         {sim::LinkSharing::FairShare, sim::LinkSharing::Dedicated})
      for (int processors : {1, 8, 64})
        cases.push_back({mode, sharing, processors});
  return cases;
}

std::string describe(const Case& c) {
  return std::string(dataModeName(c.mode)) +
         (c.sharing == sim::LinkSharing::FairShare ? " fair-share"
                                                   : " dedicated") +
         " procs " + std::to_string(c.processors);
}

EngineConfig configFor(const Case& c) {
  EngineConfig cfg;
  cfg.mode = c.mode;
  cfg.linkSharing = c.sharing;
  cfg.processors = c.processors;
  return cfg;
}

/// Each amazon-2008 per-second fee line of `dilated` is its line of `base`
/// times the factor its quantity moved by: CPU with time, transfers with
/// bytes, storage (byte-seconds) with both.
void expectFeesFollow(const ExecutionResult& base,
                      const ExecutionResult& dilated, double timeFactor,
                      double byteFactor) {
  static const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  for (cloud::CpuBillingMode billing :
       {cloud::CpuBillingMode::Provisioned, cloud::CpuBillingMode::Usage}) {
    SCOPED_TRACE(billing == cloud::CpuBillingMode::Provisioned ? "provisioned"
                                                               : "usage");
    const cloud::CostBreakdown b = computeCost(base, pricing, billing);
    const cloud::CostBreakdown d = computeCost(dilated, pricing, billing);
    EXPECT_EQ(d.cpu.value(), timeFactor * b.cpu.value());
    EXPECT_EQ(d.storage.value(), timeFactor * byteFactor * b.storage.value());
    EXPECT_EQ(d.transferIn.value(), byteFactor * b.transferIn.value());
    EXPECT_EQ(d.transferOut.value(), byteFactor * b.transferOut.value());
  }
}

void expectTimeDilation(const dag::Workflow& workflow, const Case& c) {
  SCOPED_TRACE(workflow.name() + " " + describe(c));
  EngineConfig cfg = configFor(c);
  const ExecutionResult base = simulateWorkflow(workflow, cfg);
  dag::Workflow slow = workflow;
  slow.scaleAllRuntimes(2.0);
  cfg.linkBandwidthBytesPerSec /= 2.0;
  const ExecutionResult r = simulateWorkflow(slow, cfg);

  ASSERT_TRUE(base.completed());
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.makespanSeconds, 2.0 * base.makespanSeconds);
  EXPECT_EQ(r.cpuBusySeconds, 2.0 * base.cpuBusySeconds);
  EXPECT_EQ(r.processorBusySeconds, 2.0 * base.processorBusySeconds);
  EXPECT_EQ(r.storageByteSeconds, 2.0 * base.storageByteSeconds);
  EXPECT_EQ(r.bytesIn.value(), base.bytesIn.value());
  EXPECT_EQ(r.bytesOut.value(), base.bytesOut.value());
  EXPECT_EQ(r.peakStorageBytes.value(), base.peakStorageBytes.value());
  expectFeesFollow(base, r, 2.0, 1.0);
}

void expectSizeDilation(const dag::Workflow& workflow, const Case& c) {
  SCOPED_TRACE(workflow.name() + " " + describe(c));
  EngineConfig cfg = configFor(c);
  const ExecutionResult base = simulateWorkflow(workflow, cfg);
  dag::Workflow big = workflow;
  big.scaleAllFileSizes(2.0);
  cfg.linkBandwidthBytesPerSec *= 2.0;
  const ExecutionResult r = simulateWorkflow(big, cfg);

  ASSERT_TRUE(base.completed());
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.makespanSeconds, base.makespanSeconds);
  EXPECT_EQ(r.cpuBusySeconds, base.cpuBusySeconds);
  EXPECT_EQ(r.bytesIn.value(), 2.0 * base.bytesIn.value());
  EXPECT_EQ(r.bytesOut.value(), 2.0 * base.bytesOut.value());
  EXPECT_EQ(r.peakStorageBytes.value(), 2.0 * base.peakStorageBytes.value());
  EXPECT_EQ(r.storageByteSeconds, 2.0 * base.storageByteSeconds);
  expectFeesFollow(base, r, 1.0, 2.0);
}

/// CPU-seconds, and Remote I/O bytes in and out, are charged to their task
/// and summed in task-id order, so they do not depend on the order in which
/// tasks finish.  Regular and Cleanup stage every file once, at the start
/// and at the end of the run, whatever the pool size.
void expectPoolSizeInvariance(const dag::Workflow& workflow) {
  for (DataMode mode :
       {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup})
    for (sim::LinkSharing sharing :
         {sim::LinkSharing::FairShare, sim::LinkSharing::Dedicated}) {
      const Case serialCase{mode, sharing, 1};
      SCOPED_TRACE(workflow.name() + " " + describe(serialCase));
      const ExecutionResult serial =
          simulateWorkflow(workflow, configFor(serialCase));
      ASSERT_TRUE(serial.completed());
      EXPECT_EQ(serial.cpuBusySeconds, workflow.totalRuntimeSeconds());
      for (int processors : {2, 3, 8, 64}) {
        SCOPED_TRACE("against procs " + std::to_string(processors));
        const ExecutionResult r =
            simulateWorkflow(workflow, configFor({mode, sharing, processors}));
        ASSERT_TRUE(r.completed());
        EXPECT_EQ(r.cpuBusySeconds, serial.cpuBusySeconds);
        EXPECT_EQ(r.bytesIn.value(), serial.bytesIn.value());
        EXPECT_EQ(r.bytesOut.value(), serial.bytesOut.value());
      }
    }
}

/// `pricing` with each of its four rates doubled.
cloud::Pricing doubledRates(cloud::Pricing pricing) {
  pricing.storagePerGBMonth *= 2.0;
  pricing.transferInPerGB *= 2.0;
  pricing.transferOutPerGB *= 2.0;
  pricing.cpuPerHour *= 2.0;
  return pricing;
}

constexpr cloud::CpuBillingMode kBillingModes[] = {
    cloud::CpuBillingMode::Provisioned, cloud::CpuBillingMode::Usage};

/// Every component of `twice` is exactly twice its value in `once`.
void expectDoubled(const cloud::CostBreakdown& once,
                   const cloud::CostBreakdown& twice) {
  EXPECT_EQ(twice.cpu.value(), 2.0 * once.cpu.value());
  EXPECT_EQ(twice.storage.value(), 2.0 * once.storage.value());
  EXPECT_EQ(twice.storageCleanup.value(), 2.0 * once.storageCleanup.value());
  EXPECT_EQ(twice.transferIn.value(), 2.0 * once.transferIn.value());
  EXPECT_EQ(twice.transferOut.value(), 2.0 * once.transferOut.value());
}

/// Each builtin profile's fee view, doubled, bills the run of `workflow`
/// at twice each component, in both CPU billing modes.
void expectFeeLinearity(const dag::Workflow& workflow, const Case& c) {
  SCOPED_TRACE(workflow.name() + " " + describe(c));
  const ExecutionResult r = simulateWorkflow(workflow, configFor(c));
  ASSERT_TRUE(r.completed());
  for (const auto& [name, profile] :
       cloud::ProviderCatalog::builtin().profiles()) {
    SCOPED_TRACE(name);
    const cloud::Pricing pricing = profile.pricing();
    for (cloud::CpuBillingMode billing : kBillingModes)
      expectDoubled(computeCost(r, pricing, billing),
                    computeCost(r, doubledRates(pricing), billing));
  }
}

void expectDoubled(const obs::AttributedCost& once,
                   const obs::AttributedCost& twice) {
  EXPECT_EQ(twice.cpu.value(), 2.0 * once.cpu.value());
  EXPECT_EQ(twice.storage.value(), 2.0 * once.storage.value());
  EXPECT_EQ(twice.transferIn.value(), 2.0 * once.transferIn.value());
  EXPECT_EQ(twice.transferOut.value(), 2.0 * once.transferOut.value());
}

/// Every money field of every profile in `catalog`, doubled.
cloud::ProviderCatalog doubledCatalog(const cloud::ProviderCatalog& catalog) {
  cloud::ProviderCatalog out;
  for (auto [name, profile] : catalog.profiles()) {
    for (cloud::InstanceType& sku : profile.instanceTypes)
      sku.hourlyRate *= 2.0;
    for (cloud::StorageClass& tier : profile.storageClasses) {
      tier.perGBMonth *= 2.0;
      tier.retrievalPerGB *= 2.0;
    }
    profile.transfer.inPerGB *= 2.0;
    profile.transfer.outPerGB *= 2.0;
    out.add(std::move(profile));
  }
  return out;
}

std::vector<dag::Workflow> montagePresets() {
  std::vector<dag::Workflow> presets;
  presets.push_back(montage::buildMontageWorkflow(1.0));
  presets.push_back(montage::buildMontageWorkflow(4.0));
  return presets;
}

TEST(DilationRelations, TimeDilationOnMontagePresets) {
  for (const dag::Workflow& wf : montagePresets())
    for (const Case& c : allCases()) expectTimeDilation(wf, c);
}

TEST(DilationRelations, SizeDilationOnMontagePresets) {
  for (const dag::Workflow& wf : montagePresets())
    for (const Case& c : allCases()) expectSizeDilation(wf, c);
}

TEST(DilationRelations, TimeDilationOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dag::Workflow wf = dag::makeRandomWorkflow(seed);
    for (const Case& c : allCases()) expectTimeDilation(wf, c);
  }
}

TEST(DilationRelations, SizeDilationOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dag::Workflow wf = dag::makeRandomWorkflow(seed);
    for (const Case& c : allCases()) expectSizeDilation(wf, c);
  }
}

TEST(DilationRelations, FeeLinearityOnMontagePresets) {
  for (const dag::Workflow& wf : montagePresets())
    for (const Case& c : allCases()) expectFeeLinearity(wf, c);
}

TEST(DilationRelations, FeeLinearityOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dag::Workflow wf = dag::makeRandomWorkflow(seed);
    for (const Case& c : allCases()) expectFeeLinearity(wf, c);
  }
}

TEST(DilationRelations, FeeLinearityOfTheRunReport) {
  const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  for (const dag::Workflow& wf : montagePresets())
    for (DataMode mode :
         {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup}) {
      SCOPED_TRACE(wf.name() + " " + dataModeName(mode));
      obs::ReportBuilder lineItems;
      EngineConfig cfg;
      cfg.mode = mode;
      cfg.processors = 8;
      cfg.observer = &lineItems;
      const ExecutionResult r = simulateWorkflow(wf, cfg);
      for (cloud::CpuBillingMode billing : kBillingModes) {
        const obs::RunReport once = lineItems.build(wf, r, pricing, billing);
        const obs::RunReport twice =
            lineItems.build(wf, r, doubledRates(pricing), billing);
        expectDoubled(once.totals, twice.totals);
        EXPECT_EQ(twice.unattributedCpu.value(),
                  2.0 * once.unattributedCpu.value());
        expectDoubled(once.staging, twice.staging);
        ASSERT_EQ(twice.byTask.size(), once.byTask.size());
        for (std::size_t i = 0; i < once.byTask.size(); ++i)
          expectDoubled(once.byTask[i].cost, twice.byTask[i].cost);
        ASSERT_EQ(twice.byLevel.size(), once.byLevel.size());
        for (std::size_t i = 0; i < once.byLevel.size(); ++i)
          expectDoubled(once.byLevel[i].cost, twice.byLevel[i].cost);
      }
    }
}

TEST(DilationRelations, FeeLinearityOfOptimizePlacement) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const cloud::ProviderCatalog& catalog = cloud::ProviderCatalog::builtin();
  const cloud::ProviderCatalog twiceCatalog = doubledCatalog(catalog);
  for (cloud::CpuBillingMode billing : kBillingModes) {
    analysis::OptimizeConfig config;
    config.billing = billing;
    config.useSpot = true;
    config.sweepArchiveHosting = true;
    config.sweepCrossProviderScratch = true;
    config.requestsPerMonth = 1000.0;
    const analysis::OptimizeResult once =
        analysis::optimizePlacement(wf, catalog, config);
    const analysis::OptimizeResult twice =
        analysis::optimizePlacement(wf, twiceCatalog, config);
    ASSERT_EQ(twice.ranked.size(), once.ranked.size());
    // Every cost line is non-zero somewhere, so each one is checked.
    analysis::PlacementCostBreakdown sum;
    for (const analysis::PlacementCandidate& c : once.ranked) {
      sum.spotRework += c.cost.spotRework;
      sum.scratchTransfer += c.cost.scratchTransfer;
      sum.retrieval += c.cost.retrieval;
      sum.archiveShare += c.cost.archiveShare;
    }
    EXPECT_GT(sum.spotRework.value(), 0.0);
    EXPECT_GT(sum.scratchTransfer.value(), 0.0);
    EXPECT_GT(sum.retrieval.value(), 0.0);
    EXPECT_GT(sum.archiveShare.value(), 0.0);
    for (std::size_t i = 0; i < once.ranked.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(i));
      const analysis::PlacementCandidate& a = once.ranked[i];
      const analysis::PlacementCandidate& b = twice.ranked[i];
      EXPECT_EQ(b.assignment.computeProvider, a.assignment.computeProvider);
      EXPECT_EQ(b.assignment.instanceType, a.assignment.instanceType);
      EXPECT_EQ(b.assignment.spot, a.assignment.spot);
      for (const auto& [x, y] :
           {std::pair{&a.assignment.inputs, &b.assignment.inputs},
            std::pair{&a.assignment.intermediates,
                      &b.assignment.intermediates},
            std::pair{&a.assignment.outputs, &b.assignment.outputs}}) {
        EXPECT_EQ(y->provider, x->provider);
        EXPECT_EQ(y->storageClass, x->storageClass);
      }
      EXPECT_EQ(b.mode, a.mode);
      EXPECT_EQ(b.makespanSeconds, a.makespanSeconds);
      EXPECT_EQ(b.expectedInterruptions, a.expectedInterruptions);
      EXPECT_EQ(b.onFrontier, a.onFrontier);
      const analysis::PlacementCostBreakdown& p = a.cost;
      const analysis::PlacementCostBreakdown& q = b.cost;
      EXPECT_EQ(q.cpu.value(), 2.0 * p.cpu.value());
      EXPECT_EQ(q.spotRework.value(), 2.0 * p.spotRework.value());
      EXPECT_EQ(q.storage.value(), 2.0 * p.storage.value());
      EXPECT_EQ(q.scratchTransfer.value(), 2.0 * p.scratchTransfer.value());
      EXPECT_EQ(q.retrieval.value(), 2.0 * p.retrieval.value());
      EXPECT_EQ(q.transfer.value(), 2.0 * p.transfer.value());
      EXPECT_EQ(q.archiveShare.value(), 2.0 * p.archiveShare.value());
      EXPECT_EQ(q.total().value(), 2.0 * p.total().value());
    }
  }
}

TEST(DilationRelations, PoolSizeOnMontagePresets) {
  for (const dag::Workflow& wf : montagePresets()) expectPoolSizeInvariance(wf);
}

TEST(DilationRelations, PoolSizeOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectPoolSizeInvariance(dag::makeRandomWorkflow(seed));
  }
}

}  // namespace
}  // namespace mcsim::engine
