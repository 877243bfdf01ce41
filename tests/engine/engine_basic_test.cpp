// Engine semantics pinned on the paper's own Figure 3 example (see
// tests/common/fixtures.hpp for the reconstruction).  All tests use a
// 1 MB/s link so byte counts read directly as seconds.
#include "mcsim/engine/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "tests/common/fixtures.hpp"
#include "tests/common/traced.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::engine {
namespace {

using test::makeFigure3Workflow;

EngineConfig config(DataMode mode, int processors) {
  EngineConfig cfg;
  cfg.mode = mode;
  cfg.processors = processors;
  cfg.linkBandwidthBytesPerSec = 1e6;  // 1 MB/s
  return cfg;
}

TEST(EngineBasic, RegularSerialMakespanIsStageInPlusWorkPlusStageOut) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::Regular, 1));
  // 1 s stage-in (file a) + 70 s serial compute + 1 s stage-out (g and h
  // transfer concurrently on dedicated links).
  EXPECT_NEAR(r.makespanSeconds, 72.0, 1e-9);
  EXPECT_EQ(r.tasksExecuted, 7u);
  EXPECT_NEAR(r.cpuBusySeconds, 70.0, 1e-9);
}

TEST(EngineBasic, RegularWideMakespanIsCriticalPathBound) {
  const auto fig = makeFigure3Workflow();
  // With >= 3 processors the schedule is stage-in + 4 level-waves + stage-out.
  for (int p : {3, 4, 8}) {
    const auto r = simulateWorkflow(fig.wf, config(DataMode::Regular, p));
    EXPECT_NEAR(r.makespanSeconds, 1.0 + 40.0 + 1.0, 1e-9) << p << " procs";
  }
}

TEST(EngineBasic, RegularTransfersAreWorkflowBoundary) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::Regular, 2));
  EXPECT_NEAR(r.bytesIn.mb(), 1.0, 1e-9);   // a
  EXPECT_NEAR(r.bytesOut.mb(), 2.0, 1e-9);  // g + h
  EXPECT_EQ(r.transfersIn, 1u);
  EXPECT_EQ(r.transfersOut, 2u);
}

TEST(EngineBasic, CleanupTransfersIdenticalToRegular) {
  // Paper §6: "The amount of data transfer in the Regular and the Cleanup
  // mode are the same since dynamically removing data at the execution site
  // does not affect the data transfers."
  const auto fig = makeFigure3Workflow();
  for (int p : {1, 2, 4}) {
    const auto reg = simulateWorkflow(fig.wf, config(DataMode::Regular, p));
    const auto cln =
        simulateWorkflow(fig.wf, config(DataMode::DynamicCleanup, p));
    EXPECT_DOUBLE_EQ(reg.bytesIn.value(), cln.bytesIn.value());
    EXPECT_DOUBLE_EQ(reg.bytesOut.value(), cln.bytesOut.value());
    EXPECT_DOUBLE_EQ(reg.makespanSeconds, cln.makespanSeconds);
  }
}

TEST(EngineBasic, RemoteIoTransfersCountEveryUse) {
  // Paper §3: in remote I/O every task stages in its inputs and stages out
  // its outputs.  Figure 3: 9 input uses (b is fetched by t1, t2 AND t6 --
  // "the file may be transferred in multiple times"), 7 outputs.
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::RemoteIO, 2));
  EXPECT_NEAR(r.bytesIn.mb(), 9.0, 1e-9);
  EXPECT_NEAR(r.bytesOut.mb(), 7.0, 1e-9);
  EXPECT_EQ(r.transfersIn, 9u);
  EXPECT_EQ(r.transfersOut, 7u);
}

TEST(EngineBasic, RemoteIoSerialMakespan) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::RemoteIO, 1));
  // Six 1-in/1-out tasks: 1+10+1 = 12 s each; t6's three inputs arrive
  // concurrently on dedicated links: 1+10+1 = 12 s as well.
  EXPECT_NEAR(r.makespanSeconds, 7 * 12.0, 1e-9);
  // The processor is held during staging: fully busy for the whole run.
  EXPECT_NEAR(r.processorBusySeconds, r.makespanSeconds, 1e-9);
  EXPECT_NEAR(r.utilization(), 1.0, 1e-9);
  // But CPU *work* is still just the runtimes (usage billing, Fig 10).
  EXPECT_NEAR(r.cpuBusySeconds, 70.0, 1e-9);
}

TEST(EngineBasic, CpuBusyInvariantAcrossModes) {
  const auto fig = makeFigure3Workflow();
  for (DataMode mode : {DataMode::RemoteIO, DataMode::Regular,
                        DataMode::DynamicCleanup}) {
    const auto r = simulateWorkflow(fig.wf, config(mode, 2));
    EXPECT_NEAR(r.cpuBusySeconds, 70.0, 1e-9) << dataModeName(mode);
  }
}

TEST(EngineBasic, StorageOrderingCleanupBelowRegular) {
  const auto fig = makeFigure3Workflow();
  for (int p : {1, 2, 4}) {
    const auto reg = simulateWorkflow(fig.wf, config(DataMode::Regular, p));
    const auto cln =
        simulateWorkflow(fig.wf, config(DataMode::DynamicCleanup, p));
    EXPECT_LT(cln.storageByteSeconds, reg.storageByteSeconds) << p;
    EXPECT_LE(cln.peakStorageBytes, reg.peakStorageBytes) << p;
  }
}

TEST(EngineBasic, SerialStorageByteSecondsExact) {
  // Hand-traced serial (FIFO) schedule: t0,t1,t2,t4,t5,t3,t6 finishing at
  // 11,21,31,41,51,61,71; both stage-out transfers run concurrently and end
  // at 72.  Regular keeps every file to the end; cleanup deletes at last
  // use.
  const auto fig = makeFigure3Workflow();
  const auto reg = simulateWorkflow(fig.wf, config(DataMode::Regular, 1));
  // a:71 b:61 c:51 d:41 e:31 h:21 f:11 g:1 (MB-seconds) = 288.
  EXPECT_NEAR(reg.storageByteSeconds / 1e6, 288.0, 1e-6);
  const auto cln =
      simulateWorkflow(fig.wf, config(DataMode::DynamicCleanup, 1));
  // a:10 b:60 c:30 d:30 e:30 f:10 h:(51->72)=21 g:1 = 192.
  EXPECT_NEAR(cln.storageByteSeconds / 1e6, 192.0, 1e-6);
}

TEST(EngineBasic, RegularPeakIsEveryFile) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::Regular, 2));
  EXPECT_NEAR(r.peakStorageBytes.mb(), 8.0, 1e-9);
}

TEST(EngineBasic, CleanupPeakMatchesHandTrace) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::DynamicCleanup, 1));
  // Largest live set: at t4's completion instant its output e lands before
  // its input c is released, so {b, c, d} + e + (c still resident) = 5 MB.
  // Outputs-before-release matches reality: both coexist on disk at the
  // handoff.
  EXPECT_NEAR(r.peakStorageBytes.mb(), 5.0, 1e-9);
}

TEST(EngineBasic, UtilizationSerialRegular) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::Regular, 1));
  EXPECT_NEAR(r.utilization(), 70.0 / 72.0, 1e-9);
}

TEST(EngineBasic, UtilizationDropsWithOverProvisioning) {
  const auto fig = makeFigure3Workflow();
  const auto narrow = simulateWorkflow(fig.wf, config(DataMode::Regular, 1));
  const auto wide = simulateWorkflow(fig.wf, config(DataMode::Regular, 8));
  EXPECT_LT(wide.utilization(), narrow.utilization());
}

TEST(EngineBasic, TraceRecordsTimeline) {
  // A SpanSink observing the run records each task's timeline: queue wait
  // (ready) <= Task span (start .. finish) and its Compute span inside.
  const auto fig = makeFigure3Workflow();
  const auto run = test::simulateTraced(fig.wf, config(DataMode::Regular, 2));
  const obs::TraceStore& trace = run.trace;
  for (std::uint32_t t = 0; t < 7; ++t) {
    const std::uint32_t ready =
        test::firstSpan(trace, obs::SpanKind::QueueWait, t);
    const std::uint32_t task = test::taskSpan(trace, t);
    const std::uint32_t exec =
        test::firstSpan(trace, obs::SpanKind::Compute, t);
    ASSERT_NE(ready, obs::kNoSpan) << t;
    ASSERT_NE(task, obs::kNoSpan) << t;
    ASSERT_NE(exec, obs::kNoSpan) << t;
    EXPECT_GE(trace.begin(ready), 0.0);
    EXPECT_GE(trace.begin(task), trace.begin(ready));
    EXPECT_GE(trace.begin(exec), trace.begin(task));
    EXPECT_GE(trace.end(task), trace.begin(exec));
  }
  // t0 becomes ready when file a lands at t=1.
  EXPECT_NEAR(
      trace.begin(test::firstSpan(trace, obs::SpanKind::QueueWait, fig.t0)),
      1.0, 1e-9);
  EXPECT_NEAR(trace.end(test::taskSpan(trace, fig.t0)), 11.0, 1e-9);
}

TEST(EngineBasic, DeterministicAcrossRuns) {
  const auto fig = makeFigure3Workflow();
  for (DataMode mode : {DataMode::RemoteIO, DataMode::Regular,
                        DataMode::DynamicCleanup}) {
    const auto a = simulateWorkflow(fig.wf, config(mode, 3));
    const auto b = simulateWorkflow(fig.wf, config(mode, 3));
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.storageByteSeconds, b.storageByteSeconds);
    EXPECT_DOUBLE_EQ(a.bytesIn.value(), b.bytesIn.value());
  }
}

TEST(EngineBasic, ResultEchoesConfig) {
  const auto fig = makeFigure3Workflow();
  const auto r = simulateWorkflow(fig.wf, config(DataMode::DynamicCleanup, 5));
  EXPECT_EQ(r.mode, DataMode::DynamicCleanup);
  EXPECT_EQ(r.processors, 5);
}

TEST(EngineBasic, DataModeNames) {
  EXPECT_STREQ(dataModeName(DataMode::RemoteIO), "remote-io");
  EXPECT_STREQ(dataModeName(DataMode::Regular), "regular");
  EXPECT_STREQ(dataModeName(DataMode::DynamicCleanup), "cleanup");
}

TEST(DataModeNames, ParseRoundTripsEveryName) {
  for (DataMode mode :
       {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup}) {
    const auto parsed = parseDataMode(dataModeName(mode));
    ASSERT_TRUE(parsed) << dataModeName(mode);
    EXPECT_EQ(*parsed, mode);
  }
}

TEST(DataModeNames, AcceptsTheAliases) {
  EXPECT_EQ(*parseDataMode("remote_io"), DataMode::RemoteIO);
  EXPECT_EQ(*parseDataMode("dynamic-cleanup"), DataMode::DynamicCleanup);
  EXPECT_EQ(*parseDataMode("dynamic_cleanup"), DataMode::DynamicCleanup);
}

TEST(DataModeNames, RefusesEverythingElse) {
  for (const char* bad : {"", "Regular", "remote io", "cleanup ", "dynamic",
                          "remoteio", "bogus"}) {
    const auto parsed = parseDataMode(bad);
    ASSERT_FALSE(parsed) << "'" << bad << "'";
    EXPECT_NE(parsed.error().find("want remote-io|regular|cleanup"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mcsim::engine
