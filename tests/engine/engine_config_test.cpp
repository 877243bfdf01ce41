// Configuration surface: validation, VM overheads, outages, link sharing,
// scheduler policies, degenerate workflows.
#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/faults/faults.hpp"

namespace mcsim::engine {
namespace {

using test::makeFigure3Workflow;

EngineConfig basic(DataMode mode = DataMode::Regular, int procs = 2) {
  EngineConfig cfg;
  cfg.mode = mode;
  cfg.processors = procs;
  cfg.linkBandwidthBytesPerSec = 1e6;
  return cfg;
}

TEST(EngineConfigTest, InvalidConfigsRejected) {
  const auto fig = makeFigure3Workflow();
  EngineConfig cfg = basic();
  cfg.processors = 0;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
  cfg = basic();
  cfg.vmStartupSeconds = -1.0;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
  cfg = basic();
  cfg.vmTeardownSeconds = -1.0;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
  cfg = basic();
  cfg.linkBandwidthBytesPerSec = 0.0;
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
  cfg = basic();
  cfg.faults.link.outages.push_back({-1.0, 5.0});
  EXPECT_THROW(simulateWorkflow(fig.wf, cfg), std::invalid_argument);
}

TEST(EngineConfigTest, UnfinalizedWorkflowRejected) {
  dag::Workflow wf("raw");
  wf.addTask("t", "t", 1.0);
  EXPECT_THROW(simulateWorkflow(wf, basic()), std::invalid_argument);
}

TEST(EngineConfigTest, EmptyWorkflowCompletesImmediately) {
  dag::Workflow wf("empty");
  wf.finalize();
  const auto r = simulateWorkflow(wf, basic());
  EXPECT_DOUBLE_EQ(r.makespanSeconds, 0.0);
  EXPECT_EQ(r.tasksExecuted, 0u);
}

TEST(EngineConfigTest, VmOverheadsExtendMakespanExactly) {
  // Paper §8: startup/teardown "would be an additional constant cost."
  const auto fig = makeFigure3Workflow();
  const auto plain = simulateWorkflow(fig.wf, basic(DataMode::Regular, 1));
  EngineConfig cfg = basic(DataMode::Regular, 1);
  cfg.vmStartupSeconds = 120.0;
  cfg.vmTeardownSeconds = 30.0;
  const auto padded = simulateWorkflow(fig.wf, cfg);
  EXPECT_NEAR(padded.makespanSeconds, plain.makespanSeconds + 150.0, 1e-9);
  // Work and transfers are unchanged.
  EXPECT_DOUBLE_EQ(padded.cpuBusySeconds, plain.cpuBusySeconds);
  EXPECT_DOUBLE_EQ(padded.bytesIn.value(), plain.bytesIn.value());
}

TEST(EngineConfigTest, VmOverheadAppliesToEmptyWorkflow) {
  dag::Workflow wf("empty");
  wf.finalize();
  EngineConfig cfg = basic();
  cfg.vmStartupSeconds = 60.0;
  cfg.vmTeardownSeconds = 60.0;
  const auto r = simulateWorkflow(wf, cfg);
  EXPECT_DOUBLE_EQ(r.makespanSeconds, 120.0);
}

TEST(EngineConfigTest, OutageDelaysStageInExactly) {
  // Figure 3's stage-in is 1 s of transfer; an outage covering [0.5, 10.5)
  // stalls it for 10 s, shifting the whole regular schedule.
  const auto fig = makeFigure3Workflow();
  const auto plain = simulateWorkflow(fig.wf, basic(DataMode::Regular, 1));
  EngineConfig cfg = basic(DataMode::Regular, 1);
  cfg.faults.link.outages.push_back({0.5, 10.0});
  const auto hit = simulateWorkflow(fig.wf, cfg);
  EXPECT_NEAR(hit.makespanSeconds, plain.makespanSeconds + 10.0, 1e-9);
}

TEST(EngineConfigTest, OutageDuringComputeOnlyIsHarmless) {
  // An outage while no transfer is in flight does not affect the schedule
  // (running tasks are unaffected; paper §8 discusses storage availability).
  const auto fig = makeFigure3Workflow();
  const auto plain = simulateWorkflow(fig.wf, basic(DataMode::Regular, 1));
  EngineConfig cfg = basic(DataMode::Regular, 1);
  cfg.faults.link.outages.push_back({20.0, 5.0});  // mid-compute, no transfer
  const auto hit = simulateWorkflow(fig.wf, cfg);
  EXPECT_NEAR(hit.makespanSeconds, plain.makespanSeconds, 1e-9);
}

TEST(EngineConfigTest, RemoteIoSuffersMoreFromOutages) {
  // Remote I/O transfers continuously, so a long outage window is far more
  // likely to stall it than the regular mode's single stage-in/out.
  const auto fig = makeFigure3Workflow();
  EngineConfig remote = basic(DataMode::RemoteIO, 2);
  EngineConfig regular = basic(DataMode::Regular, 2);
  const double remotePlain = simulateWorkflow(fig.wf, remote).makespanSeconds;
  const double regularPlain =
      simulateWorkflow(fig.wf, regular).makespanSeconds;
  const faults::OutageWindow midRun{15.0, 20.0};
  remote.faults.link.outages.push_back(midRun);
  regular.faults.link.outages.push_back(midRun);
  const double remoteHit = simulateWorkflow(fig.wf, remote).makespanSeconds;
  const double regularHit = simulateWorkflow(fig.wf, regular).makespanSeconds;
  EXPECT_GT(remoteHit - remotePlain, 1.0);
  EXPECT_GE(remoteHit - remotePlain, regularHit - regularPlain);
}

TEST(EngineConfigTest, DedicatedLinkNeverSlower) {
  const auto fig = makeFigure3Workflow();
  EngineConfig fair = basic(DataMode::RemoteIO, 4);
  fair.linkSharing = sim::LinkSharing::FairShare;
  EngineConfig dedicated = basic(DataMode::RemoteIO, 4);
  dedicated.linkSharing = sim::LinkSharing::Dedicated;
  EXPECT_LE(simulateWorkflow(fig.wf, dedicated).makespanSeconds,
            simulateWorkflow(fig.wf, fair).makespanSeconds + 1e-9);
}

TEST(EngineConfigTest, CriticalPathFirstBeatsFifoOnAdversarialGraph) {
  // External file x feeds S1, S2 (10 s sinks) and L (1 s head of a 100 s
  // chain).  FIFO readiness order starts S1, S2 on the two processors and
  // strands the long chain; CP-first starts L immediately.
  dag::Workflow wf("adversarial");
  const dag::FileId x = wf.addFile("x", Bytes(1.0));
  const dag::TaskId s1 = wf.addTask("s1", "short", 10.0);
  wf.addInput(s1, x);
  const dag::FileId s1o = wf.addFile("s1o", Bytes(1.0));
  wf.addOutput(s1, s1o);
  const dag::TaskId s2 = wf.addTask("s2", "short", 10.0);
  wf.addInput(s2, x);
  const dag::FileId s2o = wf.addFile("s2o", Bytes(1.0));
  wf.addOutput(s2, s2o);
  const dag::TaskId l = wf.addTask("l", "head", 1.0);
  wf.addInput(l, x);
  const dag::FileId lo = wf.addFile("lo", Bytes(1.0));
  wf.addOutput(l, lo);
  const dag::TaskId l2 = wf.addTask("l2", "chain", 100.0);
  wf.addInput(l2, lo);
  const dag::FileId l2o = wf.addFile("l2o", Bytes(1.0));
  wf.addOutput(l2, l2o);
  wf.finalize();

  EngineConfig fifo = basic(DataMode::Regular, 2);
  fifo.scheduler = SchedulerPolicy::Fifo;
  EngineConfig cpf = fifo;
  cpf.scheduler = SchedulerPolicy::CriticalPathFirst;
  const double fifoSpan = simulateWorkflow(wf, fifo).makespanSeconds;
  const double cpfSpan = simulateWorkflow(wf, cpf).makespanSeconds;
  EXPECT_LT(cpfSpan, fifoSpan - 5.0);
}

TEST(EngineConfigTest, SourceOnlyTasksRunWithoutStageIn) {
  // A workflow whose tasks have no inputs at all: they are ready at t=0.
  dag::Workflow wf("no-inputs");
  const dag::TaskId t = wf.addTask("gen", "gen", 5.0);
  const dag::FileId out = wf.addFile("out", Bytes::fromMB(2.0));
  wf.addOutput(t, out);
  wf.finalize();
  const auto r = simulateWorkflow(wf, basic(DataMode::Regular, 1));
  // 5 s compute + 2 s stage-out at 1 MB/s.
  EXPECT_NEAR(r.makespanSeconds, 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.bytesIn.value(), 0.0);
  EXPECT_NEAR(r.bytesOut.mb(), 2.0, 1e-9);
}

TEST(EngineConfigTest, ZeroRuntimeTasksComplete) {
  dag::Workflow wf("zero");
  const dag::FileId in = wf.addFile("in", Bytes(1.0));
  const dag::TaskId t = wf.addTask("t", "t", 0.0);
  wf.addInput(t, in);
  const dag::FileId out = wf.addFile("out", Bytes(1.0));
  wf.addOutput(t, out);
  wf.finalize();
  for (DataMode mode : {DataMode::RemoteIO, DataMode::Regular,
                        DataMode::DynamicCleanup}) {
    const auto r = simulateWorkflow(wf, basic(mode, 1));
    EXPECT_EQ(r.tasksExecuted, 1u) << dataModeName(mode);
    EXPECT_DOUBLE_EQ(r.cpuBusySeconds, 0.0);
  }
}

TEST(EngineConfigTest, BandwidthScalesTransferTime) {
  const auto fig = makeFigure3Workflow();
  EngineConfig slow = basic(DataMode::Regular, 4);
  slow.linkBandwidthBytesPerSec = 0.5e6;  // half speed
  const auto fast = simulateWorkflow(fig.wf, basic(DataMode::Regular, 4));
  const auto slowR = simulateWorkflow(fig.wf, slow);
  // Stage-in (1 MB) and stage-out (two concurrent 1 MB files on dedicated
  // links) each double from 1 s to 2 s.
  EXPECT_NEAR(slowR.makespanSeconds - fast.makespanSeconds, 2.0, 1e-9);
}

}  // namespace
}  // namespace mcsim::engine
