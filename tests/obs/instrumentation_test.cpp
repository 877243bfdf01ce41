// End-to-end instrumentation: every layer emits the right events, the
// engine's event stream is consistent with its ExecutionResult, and — the
// zero-cost contract — observing a run never changes its outcome.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "tests/common/fixtures.hpp"
#include "tests/common/traced.hpp"
#include "mcsim/cloud/storage.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/sampler.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"

namespace mcsim::obs {
namespace {

TEST(SimulatorEvents, ScheduleFireCancel) {
  RingBufferSink ring(64);
  sim::Simulator sim;
  sim.setObserver(&ring);

  sim.schedule(1.0, [] {});
  const sim::EventId doomed = sim.schedule(2.0, [] {});
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));  // second cancel: gone, no event
  sim.run();

  EXPECT_EQ(ring.countOf<SimEventScheduled>(), 2u);
  EXPECT_EQ(ring.countOf<SimEventCancelled>(), 1u);
  EXPECT_EQ(ring.countOf<SimEventFired>(), 1u);
}

TEST(LinkEvents, TransfersCarryDurationAndShare) {
  RingBufferSink ring(128);
  sim::Simulator sim;
  sim::Link link(sim,
                 sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                 .sharing = sim::LinkSharing::FairShare});
  link.setObserver(&ring);

  link.startTransfer(Bytes(1000.0), [] {});
  link.startTransfer(Bytes(1000.0), [] {});
  sim.run();

  EXPECT_EQ(ring.countOf<TransferStarted>(), 2u);
  EXPECT_EQ(ring.countOf<TransferFinished>(), 2u);
  // Two concurrent 1000-byte transfers over a fair-shared 1000 B/s link:
  // both finish at t=2.
  for (const Event& e : ring.snapshot()) {
    if (const auto* fin = std::get_if<TransferFinished>(&e.payload)) {
      EXPECT_DOUBLE_EQ(e.time, 2.0);
      EXPECT_DOUBLE_EQ(fin->seconds, 2.0);
      EXPECT_DOUBLE_EQ(fin->bytes, 1000.0);
    }
  }
  // Share changes: 1 active (1000 each) -> 2 active (500 each) -> done.
  EXPECT_GE(ring.countOf<LinkShareChanged>(), 2u);
}

TEST(LinkEvents, ProgressOnlyWhenAccepted) {
  // A ring buffer accepts everything, so progress events flow; engine sinks
  // that decline them are exercised via the accepts() gate in Link itself.
  RingBufferSink ring(256);
  sim::Simulator sim;
  sim::Link link(sim,
                 sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                 .sharing = sim::LinkSharing::FairShare});
  link.setObserver(&ring);

  link.startTransfer(Bytes(500.0), [] {});
  link.startTransfer(Bytes(1500.0), [] {});  // outlives the first
  sim.run();
  EXPECT_GE(ring.countOf<TransferProgress>(), 1u);

  NullSink null;
  sim::Simulator sim2;
  sim::Link link2(sim2,
                  sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                  .sharing = sim::LinkSharing::FairShare});
  link2.setObserver(&null);
  link2.startTransfer(Bytes(500.0), [] {});
  sim2.run();  // must not crash; NullSink declines everything
  EXPECT_EQ(link2.completedTransfers(), 1u);
}

TEST(StorageEvents, PutAndEraseTrackResidency) {
  RingBufferSink ring(64);
  sim::Simulator sim;
  cloud::StorageService storage(sim);
  storage.setObserver(&ring);

  storage.put(1, Bytes(100.0));
  storage.put(2, Bytes(50.0));
  storage.erase(1);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<StorageFilePut>(events[1].payload).residentBytes,
                   150.0);
  const auto& erased = std::get<StorageFileErased>(events[2].payload);
  EXPECT_EQ(erased.key, 1u);
  EXPECT_DOUBLE_EQ(erased.bytes, 100.0);
  EXPECT_DOUBLE_EQ(erased.residentBytes, 50.0);
  EXPECT_EQ(erased.objects, 1u);
}

TEST(PeriodicSampler, TicksUntilStopped) {
  sim::Simulator sim;
  int samples = 0;
  PeriodicSampler sampler(sim, 10.0, [&] { ++samples; });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  sim.schedule(35.0, [&] { sampler.stop(); });
  sim.run();  // drains: the sampler no longer reschedules after stop()
  EXPECT_EQ(samples, 3);  // t = 10, 20, 30
  EXPECT_FALSE(sampler.running());
}

TEST(PeriodicSampler, RejectsNonPositivePeriod) {
  sim::Simulator sim;
  EXPECT_THROW(PeriodicSampler(sim, 0.0, [] {}), std::invalid_argument);
}

// -- engine stream ------------------------------------------------------------

engine::ExecutionResult observedRun(const dag::Workflow& wf,
                                    engine::EngineConfig cfg, Sink* sink) {
  cfg.observer = sink;
  return engine::simulateWorkflow(wf, cfg);
}

TEST(EngineEvents, LifecyclePerTaskAndRunMarkers) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  const auto result = observedRun(fig.wf, cfg, &ring);

  EXPECT_EQ(ring.countOf<RunStarted>(), 1u);
  EXPECT_EQ(ring.countOf<RunFinished>(), 1u);
  EXPECT_EQ(ring.countOf<TaskReady>(), 7u);
  EXPECT_EQ(ring.countOf<TaskStarted>(), 7u);
  EXPECT_EQ(ring.countOf<TaskExecStarted>(), 7u);
  EXPECT_EQ(ring.countOf<TaskFinished>(), 7u);

  // Stage-in of the single external input, stage-out of g and h.
  EXPECT_EQ(ring.countOf<StageInStarted>(), 1u);
  EXPECT_EQ(ring.countOf<StageInFinished>(), 1u);
  EXPECT_EQ(ring.countOf<StageOutStarted>(), 2u);
  EXPECT_EQ(ring.countOf<StageOutFinished>(), 2u);

  // The RunFinished marker carries the pre-teardown end time.
  for (const Event& e : ring.snapshot()) {
    if (const auto* fin = std::get_if<RunFinished>(&e.payload)) {
      EXPECT_DOUBLE_EQ(fin->seconds, result.makespanSeconds);
    }
  }
}

TEST(EngineEvents, PerTaskOrderingIsReadyStartExecFinish) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 1;
  observedRun(fig.wf, cfg, &ring);

  std::map<std::uint32_t, int> stage;  // 0 ready, 1 started, 2 exec, 3 done
  for (const Event& e : ring.snapshot()) {
    switch (kind(e)) {
      case EventKind::TaskReady:
        EXPECT_EQ(stage.count(std::get<TaskReady>(e.payload).task), 0u);
        stage[std::get<TaskReady>(e.payload).task] = 0;
        break;
      case EventKind::TaskStarted:
        EXPECT_EQ(stage.at(std::get<TaskStarted>(e.payload).task), 0);
        stage[std::get<TaskStarted>(e.payload).task] = 1;
        break;
      case EventKind::TaskExecStarted:
        EXPECT_EQ(stage.at(std::get<TaskExecStarted>(e.payload).task), 1);
        stage[std::get<TaskExecStarted>(e.payload).task] = 2;
        break;
      case EventKind::TaskFinished:
        EXPECT_EQ(stage.at(std::get<TaskFinished>(e.payload).task), 2);
        stage[std::get<TaskFinished>(e.payload).task] = 3;
        break;
      default: break;
    }
  }
  EXPECT_EQ(stage.size(), 7u);
  for (const auto& [task, s] : stage) EXPECT_EQ(s, 3) << "task " << task;
}

// The engine's processor pool on one processor: each task is claimed just
// before it starts and released just after it finishes, and each claim or
// release reports the ready tasks still waiting.  A 4-wide fork-join
// dispatches split, then w0..w3 (ready together), then join.
TEST(EngineEvents, OneProcessorClaimsThenReleasesEachTaskInDispatchOrder) {
  const dag::Workflow wf = test::makeForkJoinWorkflow(4);
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 1;
  observedRun(wf, cfg, &ring);

  const std::vector<Event> events = ring.snapshot();
  std::vector<std::uint32_t> dispatched;
  std::vector<std::size_t> queuedAtClaim;
  std::vector<std::size_t> queuedAtRelease;
  std::size_t ready = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (kind(e) == EventKind::TaskReady) ++ready;
    if (const auto* c = std::get_if<ProcessorClaimed>(&e.payload)) {
      EXPECT_EQ(c->busy, 1);
      EXPECT_EQ(c->total, 1);
      // The claimed task has left the ready queue; it starts next.
      ASSERT_LT(i + 1, events.size());
      const auto* started = std::get_if<TaskStarted>(&events[i + 1].payload);
      ASSERT_NE(started, nullptr) << "claim " << dispatched.size();
      EXPECT_EQ(c->queued, ready - dispatched.size() - 1);
      dispatched.push_back(started->task);
      queuedAtClaim.push_back(c->queued);
    }
    if (const auto* r = std::get_if<ProcessorReleased>(&e.payload)) {
      EXPECT_EQ(r->busy, 0);
      EXPECT_EQ(r->total, 1);
      // The processor's holder, the last task dispatched, just finished.
      ASSERT_GT(i, 0u);
      const auto* finished = std::get_if<TaskFinished>(&events[i - 1].payload);
      ASSERT_NE(finished, nullptr) << "release " << queuedAtRelease.size();
      ASSERT_EQ(queuedAtRelease.size() + 1, dispatched.size());
      EXPECT_EQ(finished->task, dispatched.back());
      EXPECT_EQ(r->queued, ready - dispatched.size());
      queuedAtRelease.push_back(r->queued);
    }
  }
  // Ids: split 0, join 1, w0..w3 2..5.
  EXPECT_EQ(dispatched, (std::vector<std::uint32_t>{0, 2, 3, 4, 5, 1}));
  const std::vector<std::size_t> waiting{0, 3, 2, 1, 0, 0};
  EXPECT_EQ(queuedAtClaim, waiting);
  EXPECT_EQ(queuedAtRelease, waiting);
}

TEST(EngineEvents, CleanupDecisionsAreReported) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.mode = engine::DataMode::DynamicCleanup;
  observedRun(fig.wf, cfg, &ring);

  // a, c, d, e, f are deletable intermediates; b's last consumer is t6.
  EXPECT_EQ(ring.countOf<FileCleanupDeleted>(), 6u);
  bool bFreedByT6 = false;
  for (const Event& e : ring.snapshot())
    if (const auto* del = std::get_if<FileCleanupDeleted>(&e.payload))
      if (del->file == fig.b && del->task == fig.t6) bFreedByT6 = true;
  EXPECT_TRUE(bFreedByT6);
}

TEST(EngineEvents, SamplerEmitsStorageSamples) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.samplePeriodSeconds = 5.0;
  const auto result = observedRun(fig.wf, cfg, &ring);
  // The run lasts tens of seconds; samples every 5 s until the end.
  const std::size_t expected =
      static_cast<std::size_t>(result.makespanSeconds / 5.0);
  EXPECT_EQ(ring.countOf<StorageSampled>(), expected);
}

TEST(EngineEvents, ObservationDoesNotPerturbTheRun) {
  // The determinism contract: identical results with no sink, a NullSink,
  // and a full recorder — telemetry must be read-only.
  const auto wfs = {test::makeForkJoinWorkflow(6), test::makeChainWorkflow(5)};
  for (const dag::Workflow& wf : wfs) {
    for (const auto mode :
         {engine::DataMode::Regular, engine::DataMode::DynamicCleanup,
          engine::DataMode::RemoteIO}) {
      engine::EngineConfig cfg;
      cfg.processors = 3;
      cfg.mode = mode;
      cfg.faults.legacy.probability = 0.05;
      const auto bare = engine::simulateWorkflow(wf, cfg);

      NullSink null;
      const auto nulled = observedRun(wf, cfg, &null);

      RingBufferSink ring(1 << 14);
      engine::EngineConfig observedCfg = cfg;
      observedCfg.samplePeriodSeconds = 7.0;
      const auto observed = observedRun(wf, observedCfg, &ring);

      for (const auto& r : {nulled, observed}) {
        EXPECT_DOUBLE_EQ(r.makespanSeconds, bare.makespanSeconds);
        EXPECT_DOUBLE_EQ(r.cpuBusySeconds, bare.cpuBusySeconds);
        EXPECT_DOUBLE_EQ(r.storageByteSeconds, bare.storageByteSeconds);
        EXPECT_DOUBLE_EQ(r.bytesIn.value(), bare.bytesIn.value());
        EXPECT_DOUBLE_EQ(r.bytesOut.value(), bare.bytesOut.value());
        EXPECT_EQ(r.taskRetries, bare.taskRetries);
      }
    }
  }
}

TEST(EngineEvents, TraceOptionStillWorksAlongsideObserver) {
  // A span sink fanned out next to another observer records the whole
  // timeline, and the other observer still sees every event.
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.observer = &ring;
  const auto run = test::simulateTraced(fig.wf, cfg);
  for (std::uint32_t t = 0; t < 7; ++t) {
    const std::uint32_t ready =
        test::firstSpan(run.trace, SpanKind::QueueWait, t);
    const std::uint32_t task = test::taskSpan(run.trace, t);
    const std::uint32_t exec = test::firstSpan(run.trace, SpanKind::Compute, t);
    ASSERT_NE(ready, kNoSpan) << t;
    ASSERT_NE(task, kNoSpan) << t;
    ASSERT_NE(exec, kNoSpan) << t;
    EXPECT_GE(run.trace.begin(task), run.trace.begin(ready));
    EXPECT_GE(run.trace.begin(exec), run.trace.begin(task));
    EXPECT_GT(run.trace.end(task), run.trace.begin(exec));
  }
  EXPECT_EQ(ring.countOf<TaskFinished>(), 7u);  // observer still saw the run
}

}  // namespace
}  // namespace mcsim::obs
