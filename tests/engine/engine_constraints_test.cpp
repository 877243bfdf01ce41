// Storage-constrained execution and failure injection: the two engine
// features motivated by the paper's §3 (cleanup exists for storage-
// constrained resources) and §8 (reliability).
#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::engine {
namespace {

using test::makeChainWorkflow;
using test::makeFigure3Workflow;

EngineConfig capped(DataMode mode, int procs, double capacityMB) {
  EngineConfig cfg;
  cfg.mode = mode;
  cfg.processors = procs;
  cfg.linkBandwidthBytesPerSec = 1e6;
  cfg.storageCapacityBytes = capacityMB * 1e6;
  return cfg;
}

TEST(StorageCap, UnlimitedByDefault) {
  EngineConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.storageCapacityBytes, 0.0);
}

TEST(StorageCap, GenerousCapChangesNothing) {
  const auto fig = makeFigure3Workflow();
  const auto plain =
      simulateWorkflow(fig.wf, capped(DataMode::DynamicCleanup, 2, 0.0));
  const auto wide =
      simulateWorkflow(fig.wf, capped(DataMode::DynamicCleanup, 2, 1000.0));
  EXPECT_DOUBLE_EQ(plain.makespanSeconds, wide.makespanSeconds);
  EXPECT_EQ(wide.tasksEverBlocked, 0u);
}

TEST(StorageCap, CleanupRunsWhereRegularDeadlocks) {
  // Figure 3 needs 8 MB peak in regular mode but only ~5 MB with cleanup:
  // a 6 MB cap is feasible only for cleanup -- exactly the paper's argument
  // for dynamic cleanup on storage-constrained resources.
  const auto fig = makeFigure3Workflow();
  const auto cleaned =
      simulateWorkflow(fig.wf, capped(DataMode::DynamicCleanup, 1, 6.0));
  EXPECT_EQ(cleaned.tasksExecuted, 7u);
  EXPECT_LE(cleaned.peakStorageBytes.mb(), 6.0 + 1e-9);

  EXPECT_THROW(simulateWorkflow(fig.wf, capped(DataMode::Regular, 1, 6.0)),
               std::runtime_error);
}

TEST(StorageCap, BlockedTasksEventuallyRun) {
  // Four map->reduce pairs: maps emit 3 MB intermediates that their reduces
  // consume into 0.1 MB products.  A 7 MB cap admits two concurrent maps
  // (plus the 0.4 MB of inputs); the rest block until cleanup frees the
  // consumed intermediates — serialization instead of failure.
  dag::Workflow wf("parallel-heavy");
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    const dag::FileId in = wf.addFile("in" + n, Bytes::fromMB(0.1));
    const dag::TaskId map = wf.addTask("map" + n, "map", 10.0);
    wf.addInput(map, in);
    const dag::FileId mid = wf.addFile("mid" + n, Bytes::fromMB(3.0));
    wf.addOutput(map, mid);
    const dag::TaskId reduce = wf.addTask("reduce" + n, "reduce", 1.0);
    wf.addInput(reduce, mid);
    const dag::FileId out = wf.addFile("out" + n, Bytes::fromMB(0.1));
    wf.addOutput(reduce, out);
  }
  wf.finalize();
  const auto r =
      simulateWorkflow(wf, capped(DataMode::DynamicCleanup, 8, 7.0));
  EXPECT_EQ(r.tasksExecuted, 8u);
  EXPECT_GT(r.tasksEverBlocked, 0u);
  EXPECT_LE(r.peakStorageBytes.mb(), 7.0 + 1e-9);
  // With 8 processors and no cap this finishes in one 11 s wave; the cap
  // forces at least a second wave of maps.
  EXPECT_GT(r.makespanSeconds, 20.0);
}

TEST(StorageCap, RemoteIoRespectsWorkingSetCap) {
  const auto fig = makeFigure3Workflow();
  // Each remote task's working set is <= 4 MB (t6: 3 in + 1 out); an 8 MB
  // cap forces at most two concurrent tasks.
  const auto r = simulateWorkflow(fig.wf, capped(DataMode::RemoteIO, 4, 8.0));
  EXPECT_EQ(r.tasksExecuted, 7u);
  EXPECT_LE(r.peakStorageBytes.mb(), 8.0 + 1e-9);
}

TEST(StorageCap, MontageCleanupUnderTightCap) {
  // The 1-degree workflow peaks near 1.3 GB in regular mode; cleanup fits
  // in substantially less.
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 16;
  const auto unlimited = simulateWorkflow(wf, cfg);
  cfg.storageCapacityBytes = unlimited.peakStorageBytes.value();
  const auto capped = simulateWorkflow(wf, cfg);
  EXPECT_EQ(capped.tasksExecuted, wf.taskCount());
  EXPECT_LE(capped.peakStorageBytes.value(), cfg.storageCapacityBytes + 1e-6);
}

TEST(StorageCap, NegativeCapacityRejected) {
  const auto fig = makeFigure3Workflow();
  EngineConfig cfg;
  cfg.storageCapacityBytes = -1.0;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------

EngineConfig flaky(double probability, std::uint64_t seed = 7) {
  EngineConfig cfg;
  cfg.mode = DataMode::Regular;
  cfg.processors = 2;
  cfg.linkBandwidthBytesPerSec = 1e6;
  cfg.faults.legacy.probability = probability;
  cfg.faults.legacy.seed = seed;
  return cfg;
}

TEST(Failures, ZeroRateMeansNoRetries) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, flaky(0.0));
  EXPECT_EQ(r.taskRetries, 0u);
  EXPECT_NEAR(r.cpuBusySeconds, 70.0, 1e-9);
}

TEST(Failures, RetriesBillWastedWork) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, flaky(0.4));
  EXPECT_EQ(r.tasksExecuted, 7u);  // everything still completes
  EXPECT_GT(r.taskRetries, 0u);
  // Each retry re-runs a 10 s task: billed CPU = 70 + 10 x retries.
  EXPECT_NEAR(r.cpuBusySeconds, 70.0 + 10.0 * static_cast<double>(r.taskRetries),
              1e-9);
}

TEST(Failures, DeterministicPerSeed) {
  const auto fig = makeFigure3Workflow();
  const auto a = simulateWorkflow(fig.wf, flaky(0.3, 11));
  const auto b = simulateWorkflow(fig.wf, flaky(0.3, 11));
  EXPECT_EQ(a.taskRetries, b.taskRetries);
  EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
  const auto c = simulateWorkflow(fig.wf, flaky(0.3, 12));
  // A different seed gives a different (but still complete) run.
  EXPECT_EQ(c.tasksExecuted, 7u);
}

TEST(Failures, MakespanGrowsWithRate) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig reliable;
  reliable.processors = 8;
  const auto base = simulateWorkflow(wf, reliable);
  EngineConfig lossy = reliable;
  lossy.faults.legacy.probability = 0.2;
  const auto degraded = simulateWorkflow(wf, lossy);
  EXPECT_GT(degraded.makespanSeconds, base.makespanSeconds);
  EXPECT_GT(degraded.taskRetries, 0u);
}

TEST(Failures, RemoteModeRetriesExecutionOnly) {
  const auto fig = makeFigure3Workflow();
  EngineConfig cfg = flaky(0.4);
  cfg.mode = DataMode::RemoteIO;
  const auto r = simulateWorkflow(fig.wf, cfg);
  EXPECT_EQ(r.tasksExecuted, 7u);
  // Transfers are not repeated by a compute retry.
  EXPECT_NEAR(r.bytesIn.mb(), 9.0, 1e-9);
  EXPECT_NEAR(r.bytesOut.mb(), 7.0, 1e-9);
}

TEST(Failures, InvalidProbabilityRejected) {
  const auto fig = makeFigure3Workflow();
  EngineConfig cfg;
  cfg.faults.legacy.probability = -0.1;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
  cfg.faults.legacy.probability = 1.0;  // would never terminate
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::engine
