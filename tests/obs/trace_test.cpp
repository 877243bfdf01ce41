// SpanSink folding + exporter tests: the typed event stream must fold into
// exactly the documented spans and causal edges, the Perfetto export must be
// byte-stable (golden file) and valid JSON on a real Montage run, and the
// binary .mctrace format must round-trip losslessly and reject corruption.
#include "mcsim/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "tests/common/json.hpp"
#include "mcsim/analysis/explain.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/selfprofile.hpp"

namespace mcsim::obs {
namespace {

// -- synthetic two-task run ---------------------------------------------------
//
// One external input staged in, mProject -> mAdd on a single processor, one
// final stage-out: the smallest stream exercising every span family.

TraceTopology twoTaskTopology() {
  TraceTopology topo;
  topo.parentOffsets = {0, 0, 1};  // task 1's parent is task 0
  topo.parents = {0};
  topo.extInputOffsets = {0, 1, 1};  // task 0 consumes external file 0
  topo.extInputs = {0};
  return topo;
}

std::vector<Event> twoTaskStream() {
  return {
      {0.0, RunStarted{2, 3, 1}},
      {0.0, StageInStarted{0, kNoTask, 1e6}},
      {0.8, StageInFinished{0, kNoTask, 1e6}},
      {0.8, TaskReady{0}},
      {0.8, TaskStarted{0}},
      {0.8, TaskExecStarted{0}},
      {10.8, StorageFilePut{1, 2e6, 3e6, 2}},
      {10.8, TaskFinished{0, 10.0}},
      {10.8, TaskReady{1}},
      {10.8, TaskStarted{1}},
      {10.8, TaskExecStarted{1}},
      {15.8, TaskFinished{1, 5.0}},
      {15.8, StageOutStarted{2, kNoTask, 2e6}},
      {17.4, StageOutFinished{2, kNoTask, 2e6}},
      {17.4, RunFinished{17.4}},
  };
}

TraceStore foldTwoTasks() {
  TraceStore store;
  SpanSink sink(store, twoTaskTopology());
  for (const Event& e : twoTaskStream()) sink.onEvent(e);
  return store;
}

bool hasEdge(const TraceStore& store, std::uint32_t from, std::uint32_t to,
             EdgeKind kind) {
  for (std::size_t i = 0; i < store.edgeCount(); ++i) {
    if (store.edgeFroms()[i] == from && store.edgeTos()[i] == to &&
        store.edgeKinds()[i] == static_cast<std::uint8_t>(kind))
      return true;
  }
  return false;
}

TEST(SpanSink, FoldsTwoTaskChainIntoDocumentedSpans) {
  const TraceStore store = foldTwoTasks();
  ASSERT_EQ(store.spanCount(), 9u);

  // Span 0: the Run span, bounded by RunStarted/RunFinished.
  EXPECT_EQ(store.kind(0), SpanKind::Run);
  EXPECT_DOUBLE_EQ(store.begin(0), 0.0);
  EXPECT_DOUBLE_EQ(store.end(0), 17.4);
  EXPECT_EQ(store.lane(0), kLaneNone);

  // Span 1: the workflow-level stage-in on the link lane.
  EXPECT_EQ(store.kind(1), SpanKind::StageIn);
  EXPECT_EQ(store.file(1), 0u);
  EXPECT_EQ(store.task(1), kNoTask);
  EXPECT_EQ(store.lane(1), kLaneLink);
  EXPECT_DOUBLE_EQ(store.end(1), 0.8);

  // Spans 2-4: task 0's queue wait, occupancy and compute.
  EXPECT_EQ(store.kind(2), SpanKind::QueueWait);
  EXPECT_EQ(store.kind(3), SpanKind::Task);
  EXPECT_EQ(store.kind(4), SpanKind::Compute);
  EXPECT_EQ(store.task(3), 0u);
  EXPECT_EQ(store.lane(3), 0);
  EXPECT_DOUBLE_EQ(store.begin(3), 0.8);
  EXPECT_DOUBLE_EQ(store.end(3), 10.8);

  // Spans 5-7: task 1, same processor lane (sequential reuse).
  EXPECT_EQ(store.kind(6), SpanKind::Task);
  EXPECT_EQ(store.task(6), 1u);
  EXPECT_EQ(store.lane(6), 0);

  // Span 8: final stage-out back on the link lane.
  EXPECT_EQ(store.kind(8), SpanKind::StageOut);
  EXPECT_EQ(store.lane(8), kLaneLink);
  EXPECT_DOUBLE_EQ(store.end(8), 17.4);

  // Causality: external input feeds task 0's queue wait; task 0 feeds
  // task 1's queue wait (dependency) and also its lane (resource); the last
  // closed task feeds the workflow stage-out.
  EXPECT_TRUE(hasEdge(store, 1, 2, EdgeKind::FollowsFrom));
  EXPECT_TRUE(hasEdge(store, 2, 3, EdgeKind::FollowsFrom));
  EXPECT_TRUE(hasEdge(store, 3, 4, EdgeKind::Child));
  EXPECT_TRUE(hasEdge(store, 3, 5, EdgeKind::FollowsFrom));
  EXPECT_TRUE(hasEdge(store, 3, 5, EdgeKind::Resource));
  EXPECT_TRUE(hasEdge(store, 5, 6, EdgeKind::FollowsFrom));
  EXPECT_TRUE(hasEdge(store, 6, 7, EdgeKind::Child));
  EXPECT_TRUE(hasEdge(store, 6, 8, EdgeKind::FollowsFrom));

  // The StorageFilePut landed on the counter track, not as a span.
  ASSERT_EQ(store.counterCount(), 1u);
  EXPECT_DOUBLE_EQ(store.counterBytes()[0], 3e6);
  EXPECT_DOUBLE_EQ(store.counterObjects()[0], 2.0);

  EXPECT_EQ(store.laneCount(), 1);
  EXPECT_DOUBLE_EQ(store.maxTime(), 17.4);
}

TEST(SpanSink, CrashRetryFoldsIntoFailedComputeAndRetryWait) {
  TraceStore store;
  SpanSink sink(store);
  const std::vector<Event> stream = {
      {0.0, RunStarted{1, 0, 1}},
      {0.0, TaskReady{0}},
      {0.0, TaskStarted{0}},
      {0.0, TaskExecStarted{0}},
      {4.0, ProcessorCrashed{0, 4.0}},
      {4.0, TaskRetryScheduled{0, 1, 2.0}},
      {6.0, TaskExecStarted{0}},
      {16.0, TaskFinished{0, 10.0}},
      {16.0, RunFinished{16.0}},
  };
  for (const Event& e : stream) sink.onEvent(e);

  // Run, QueueWait, Task, Compute(failed), RetryWait, Compute.
  ASSERT_EQ(store.spanCount(), 6u);
  EXPECT_EQ(store.kind(3), SpanKind::Compute);
  EXPECT_TRUE(store.isFailed(3));
  EXPECT_DOUBLE_EQ(store.end(3), 4.0);
  EXPECT_EQ(store.kind(4), SpanKind::RetryWait);
  EXPECT_DOUBLE_EQ(store.begin(4), 4.0);
  EXPECT_DOUBLE_EQ(store.end(4), 6.0);
  EXPECT_EQ(store.kind(5), SpanKind::Compute);
  EXPECT_FALSE(store.isFailed(5));
  EXPECT_DOUBLE_EQ(store.end(5), 16.0);
  // The task span covers the whole occupancy and is not failed.
  EXPECT_EQ(store.kind(2), SpanKind::Task);
  EXPECT_FALSE(store.isFailed(2));
  EXPECT_DOUBLE_EQ(store.end(2), 16.0);
  // Both attempts and the retry wait nest under the task span.
  EXPECT_TRUE(hasEdge(store, 2, 3, EdgeKind::Child));
  EXPECT_TRUE(hasEdge(store, 2, 4, EdgeKind::Child));
  EXPECT_TRUE(hasEdge(store, 2, 5, EdgeKind::Child));
}

TEST(SpanSink, TaskFailedMarksSpanAndFreesLane) {
  TraceStore store;
  SpanSink sink(store);
  const std::vector<Event> stream = {
      {0.0, RunStarted{2, 0, 1}},
      {0.0, TaskReady{0}},
      {0.0, TaskStarted{0}},
      {0.0, TaskExecStarted{0}},
      {5.0, TaskFailed{0, 3}},
      {5.0, TaskReady{1}},
      {5.0, TaskStarted{1}},
      {9.0, TaskFinished{1, 4.0}},
  };
  for (const Event& e : stream) sink.onEvent(e);

  // Task 0's span is failed; task 1 reuses the freed lane 0.
  EXPECT_EQ(store.kind(2), SpanKind::Task);
  EXPECT_TRUE(store.isFailed(2));
  EXPECT_TRUE(store.isFailed(3));  // its compute too
  EXPECT_EQ(store.kind(5), SpanKind::Task);
  EXPECT_EQ(store.lane(5), 0);
  EXPECT_EQ(store.laneCount(), 1);
}

TEST(SpanSink, RemoteIoStageOutEndsCompute) {
  TraceStore store;
  SpanSink sink(store);
  const std::vector<Event> stream = {
      {0.0, RunStarted{1, 2, 1}},
      {0.0, TaskReady{0}},
      {0.0, TaskStarted{0}},
      {0.0, StageInStarted{0, 0, 1e6}},
      {0.8, StageInFinished{0, 0, 1e6}},
      {0.8, TaskExecStarted{0}},
      {10.8, StageOutStarted{1, 0, 2e6}},  // first output: exec ends here
      {12.4, StageOutFinished{1, 0, 2e6}},
      {12.4, TaskFinished{0, 10.0}},
      {12.4, RunFinished{12.4}},
  };
  for (const Event& e : stream) sink.onEvent(e);

  // The task-attributed stage spans live on the task's processor lane.
  bool sawCompute = false;
  for (std::uint32_t s = 0; s < store.spanCount(); ++s) {
    if (store.kind(s) == SpanKind::Compute) {
      sawCompute = true;
      EXPECT_DOUBLE_EQ(store.begin(s), 0.8);
      EXPECT_DOUBLE_EQ(store.end(s), 10.8);  // closed by StageOutStarted
      EXPECT_FALSE(store.isFailed(s));
    }
    if (store.kind(s) == SpanKind::StageIn ||
        store.kind(s) == SpanKind::StageOut) {
      EXPECT_EQ(store.task(s), 0u);
      EXPECT_EQ(store.lane(s), 0);
    }
  }
  EXPECT_TRUE(sawCompute);
}

TEST(SpanSink, LinkOutageBecomesOutageStallSpan) {
  TraceStore store;
  SpanSink sink(store);
  sink.onEvent({0.0, RunStarted{0, 0, 1}});
  sink.onEvent({5.0, LinkSuspended{}});
  sink.onEvent({8.0, LinkResumed{}});
  ASSERT_EQ(store.spanCount(), 2u);
  EXPECT_EQ(store.kind(1), SpanKind::OutageStall);
  EXPECT_EQ(store.lane(1), kLaneLink);
  EXPECT_DOUBLE_EQ(store.begin(1), 5.0);
  EXPECT_DOUBLE_EQ(store.end(1), 8.0);
}

TEST(SpanSink, ContentionAddsResourceEdgeAndSecondLane) {
  TraceStore store;
  SpanSink sink(store);
  // Two ready tasks, one processor: task 1 waits for task 0's lane.
  const std::vector<Event> stream = {
      {0.0, RunStarted{2, 0, 1}},
      {0.0, TaskReady{0}},
      {0.0, TaskReady{1}},
      {0.0, TaskStarted{0}},
      {7.0, TaskFinished{0, 7.0}},
      {7.0, TaskStarted{1}},
      {9.0, TaskFinished{1, 2.0}},
  };
  for (const Event& e : stream) sink.onEvent(e);
  // Task 1's queue wait spans the full wait and carries a Resource edge from
  // task 0's occupancy span.
  const std::uint32_t qw1 = 2;  // Run, qw0, qw1, task0, task1
  EXPECT_EQ(store.kind(qw1), SpanKind::QueueWait);
  EXPECT_EQ(store.task(qw1), 1u);
  EXPECT_DOUBLE_EQ(store.begin(qw1), 0.0);
  EXPECT_DOUBLE_EQ(store.end(qw1), 7.0);
  EXPECT_TRUE(hasEdge(store, 3, qw1, EdgeKind::Resource));
  EXPECT_EQ(store.laneCount(), 1);
}

// -- Perfetto export ----------------------------------------------------------

TraceNames twoTaskNames() {
  TraceNames names;
  names.taskNames = {"mProject", "mAdd"};
  names.taskTypes = {"mProject", "mAdd"};
  names.fileNames = {"in.fits", "proj.fits", "mosaic.jpg"};
  return names;
}

TEST(PerfettoExport, GoldenTwoTaskTrace) {
  const TraceStore store = foldTwoTasks();
  const TraceNames names = twoTaskNames();
  std::ostringstream out;
  writePerfettoTrace(out, store, &names);

  std::ifstream golden(std::string(MCSIM_TRACE_GOLDEN_DIR) +
                       "/two_task.perfetto.json");
  ASSERT_TRUE(golden.is_open())
      << "missing golden file; regenerate with tests/obs/golden/README";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str());
}

TEST(PerfettoExport, MontageRunProducesValidJson) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  TraceStore store;
  SpanSink sink(store, analysis::traceTopology(wf));
  engine::EngineConfig cfg;
  cfg.processors = 4;
  cfg.observer = &sink;
  engine::simulateWorkflow(wf, cfg);
  ASSERT_GT(store.spanCount(), wf.taskCount());

  const TraceNames names = analysis::traceNames(wf);
  std::ostringstream out;
  writePerfettoTrace(out, store, &names);
  const test::JsonValue doc = test::parseJson(out.str());
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());

  std::size_t complete = 0;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").asString();
    ASSERT_TRUE(ph == "X" || ph == "M" || ph == "C") << ph;
    const double pid = e.at("pid").asNumber();
    EXPECT_GE(pid, 1.0);
    EXPECT_LE(pid, 4.0);
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").asNumber(), 0.0);
      EXPECT_GE(e.at("ts").asNumber(), 0.0);
    }
  }
  EXPECT_EQ(complete, store.spanCount());
}

// -- .mctrace binary format ---------------------------------------------------

TEST(Mctrace, RoundTripsLosslessly) {
  const TraceStore store = foldTwoTasks();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeMctrace(buf, store);
  const TraceStore reread = readMctrace(buf);
  EXPECT_TRUE(store == reread);
  EXPECT_EQ(reread.laneCount(), store.laneCount());
  EXPECT_DOUBLE_EQ(reread.maxTime(), store.maxTime());
}

TEST(Mctrace, RoundTripsAMontageRun) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  TraceStore store;
  SpanSink sink(store, analysis::traceTopology(wf));
  engine::EngineConfig cfg;
  cfg.processors = 4;
  cfg.observer = &sink;
  engine::simulateWorkflow(wf, cfg);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeMctrace(buf, store);
  EXPECT_TRUE(store == readMctrace(buf));
}

TEST(Mctrace, RejectsBadMagicAndVersion) {
  {
    std::stringstream buf("JUNKJUNKJUNKJUNK");
    EXPECT_THROW(readMctrace(buf), std::runtime_error);
  }
  {
    // Valid magic, absurd version.
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    buf.write("MCTR", 4);
    const std::uint32_t version = 999;
    buf.write(reinterpret_cast<const char*>(&version), sizeof version);
    EXPECT_THROW(readMctrace(buf), std::runtime_error);
  }
}

TEST(Mctrace, EveryTruncationFailsCleanly) {
  const TraceStore store = foldTwoTasks();
  std::ostringstream full(std::ios::binary);
  writeMctrace(full, store);
  const std::string bytes = full.str();
  // Chop the stream at every prefix length: each must throw, never crash or
  // return a silently different trace.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    buf.write(bytes.data(), static_cast<std::streamsize>(n));
    EXPECT_THROW(readMctrace(buf), std::runtime_error) << "prefix " << n;
  }
}

TEST(Mctrace, RejectsCorruptHeaderCountsWithoutAllocating) {
  const TraceStore store = foldTwoTasks();
  std::ostringstream full(std::ios::binary);
  writeMctrace(full, store);
  std::string bytes = full.str();
  // Inflate the span count to ~2^60: the declared-size check must reject it
  // before any column allocation happens.
  std::uint64_t huge = 1ull << 60;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(readMctrace(buf), std::runtime_error);
}

TEST(Mctrace, RejectsDanglingEdgesAndBadKinds) {
  TraceStore store;
  const std::uint32_t a = store.beginSpan(SpanKind::Task, 0.0, 0, kNoFile,
                                          0.0, 0);
  store.endSpan(a, 1.0);
  store.addEdge(a, a, EdgeKind::Child);
  std::ostringstream full(std::ios::binary);
  writeMctrace(full, store);

  {
    // Point the edge at a span that does not exist.  Header is 32 bytes
    // (magic + version + 3 counts); one span's columns are
    // kind(1)+flags(1)+begin(8)+end(8)+task(4)+file(4)+bytes(8)+lane(4).
    std::string bytes = full.str();
    const std::size_t edgeFromOffset = 32 + (1 + 1 + 8 + 8 + 4 + 4 + 8 + 4);
    std::uint32_t bogus = 7;
    std::memcpy(bytes.data() + edgeFromOffset, &bogus, sizeof bogus);
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    buf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_THROW(readMctrace(buf), std::runtime_error);
  }
  {
    // Corrupt the span-kind byte.
    std::string bytes = full.str();
    bytes[32] = char(0x7f);
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    buf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_THROW(readMctrace(buf), std::runtime_error);
  }
}

// -- engine self-profiling ----------------------------------------------------

/// Collects every event it is offered (accepts all kinds).
struct CaptureSink final : Sink {
  std::vector<Event> events;
  void onEvent(const Event& event) override { events.push_back(event); }
  bool accepts(EventKind) const override { return true; }
};

TEST(SelfProfile, EngineEmitsPhaseProfilesOnlyWhenRequested) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);

  CaptureSink off;
  engine::EngineConfig cfg;
  cfg.processors = 4;
  cfg.observer = &off;
  engine::simulateWorkflow(wf, cfg);
  for (const Event& e : off.events)
    EXPECT_NE(kind(e), EventKind::PhaseProfile);

  CaptureSink on;
  cfg.observer = &on;
  cfg.profile = true;
  engine::simulateWorkflow(wf, cfg);
  std::size_t phases = 0;
  for (const Event& e : on.events) {
    if (kind(e) != EventKind::PhaseProfile) continue;
    ++phases;
    // Wall-clock events carry no simulation time.
    EXPECT_LT(e.time, 0.0);
    const auto& p = std::get<PhaseProfile>(e.payload);
    EXPECT_LT(static_cast<std::size_t>(p.phase), kSimPhaseCount);
    EXPECT_GE(p.wallSeconds, 0.0);
  }
  EXPECT_EQ(phases, kSimPhaseCount);

  // Profile events arrive after the deterministic stream: stripping them
  // leaves a stream identical to the unprofiled run.
  std::vector<Event> stripped;
  for (const Event& e : on.events)
    if (kind(e) != EventKind::PhaseProfile) stripped.push_back(e);
  ASSERT_EQ(stripped.size(), off.events.size());
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    EXPECT_EQ(stripped[i].time, off.events[i].time) << i;
    EXPECT_EQ(stripped[i].payload.index(), off.events[i].payload.index()) << i;
  }
}

TEST(SelfProfile, ScopedPhaseIsInertOnNullProfiler) {
  ScopedPhase inert(nullptr, SimPhase::EventLoop);
  PhaseProfiler profiler;
  {
    MCSIM_TRACE_PHASE(&profiler, SimPhase::Setup);
  }
  EXPECT_GE(profiler.seconds(SimPhase::Setup), 0.0);
  EXPECT_DOUBLE_EQ(profiler.seconds(SimPhase::EventLoop), 0.0);
  EXPECT_GE(profiler.totalSeconds(), 0.0);
}

}  // namespace
}  // namespace mcsim::obs
