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
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"

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
