// Traced engine runs: the span store's processor lanes, the Chrome
// trace-event JSON that obs::writePerfettoTrace makes of them, and the text
// renderers (level summary, Gantt chart) that read the store.
#include "mcsim/engine/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/common/fixtures.hpp"
#include "tests/common/json.hpp"
#include "tests/common/traced.hpp"
#include "mcsim/analysis/explain.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::engine {
namespace {

using test::simulateTraced;

test::TracedRun tracedRun(const dag::Workflow& wf, int procs) {
  EngineConfig cfg;
  cfg.processors = procs;
  cfg.linkBandwidthBytesPerSec = 1e6;
  return simulateTraced(wf, cfg);
}

std::string perfetto(const dag::Workflow& wf, const obs::TraceStore& trace) {
  const obs::TraceNames names = analysis::traceNames(wf);
  std::ostringstream os;
  obs::writePerfettoTrace(os, trace, &names);
  return os.str();
}

/// The complete ("ph":"X") events of category "task": one per Task span.
std::vector<test::JsonValue> taskEvents(const std::string& json) {
  std::vector<test::JsonValue> out;
  const test::JsonValue doc = test::parseJson(json);
  for (const auto& e : doc.at("traceEvents").asArray())
    if (e.at("ph").asString() == "X" && e.at("cat").asString() == "task")
      out.push_back(e);
  return out;
}

std::size_t lineCount(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// -- span store lanes and the Chrome trace-event export ----------------------

TEST(ChromeTrace, WellFormedEventArray) {
  const auto fig = test::makeFigure3Workflow();
  const auto run = tracedRun(fig.wf, 2);
  const std::string out = perfetto(fig.wf, run.trace);
  EXPECT_EQ(out.substr(0, 15), "{\"displayTimeUn");
  EXPECT_EQ(out.substr(out.size() - 3), "]}\n");
  // One complete task event per task, typed by its routine.
  EXPECT_EQ(taskEvents(out).size(), 7u);
  EXPECT_NE(out.find("\"type\":\"stage1\""), std::string::npos);
}

TEST(ChromeTrace, LaneCountMatchesConcurrency) {
  // With 2 processors the store uses exactly lanes {0, 1}, and so do the
  // exported task events.
  const auto fig = test::makeFigure3Workflow();
  const auto run = tracedRun(fig.wf, 2);
  EXPECT_EQ(run.trace.laneCount(), 2);
  std::set<int> tids;
  for (const auto& e : taskEvents(perfetto(fig.wf, run.trace)))
    tids.insert(static_cast<int>(e.at("tid").asNumber()));
  EXPECT_EQ(tids, (std::set<int>{0, 1}));
}

TEST(ChromeTrace, SerialRunUsesOneLane) {
  const auto fig = test::makeFigure3Workflow();
  const auto run = tracedRun(fig.wf, 1);
  EXPECT_EQ(run.trace.laneCount(), 1);
  for (const auto& e : taskEvents(perfetto(fig.wf, run.trace)))
    EXPECT_EQ(e.at("tid").asNumber(), 0.0);
}

TEST(ChromeTrace, TimesAreMicroseconds) {
  const auto fig = test::makeFigure3Workflow();
  const auto run = tracedRun(fig.wf, 1);
  // t0 starts at 1 s = 1e6 us and runs 10 s = 1e7 us.
  bool seen = false;
  for (const auto& e : taskEvents(perfetto(fig.wf, run.trace))) {
    if (e.at("args").at("task").asNumber() != fig.t0) continue;
    seen = true;
    EXPECT_EQ(e.at("ts").asNumber(), 1e6);
    EXPECT_EQ(e.at("dur").asNumber(), 1e7);
  }
  EXPECT_TRUE(seen);
}

TEST(ChromeTrace, ParsesAsCompleteEventArray) {
  const auto fig = test::makeFigure3Workflow();
  const auto run = tracedRun(fig.wf, 2);
  const auto events = taskEvents(perfetto(fig.wf, run.trace));
  for (const auto& event : events) {
    EXPECT_TRUE(event.has("name"));
    EXPECT_TRUE(event.has("cat"));
    EXPECT_GE(event.at("ts").asNumber(), 0.0);
    EXPECT_GT(event.at("dur").asNumber(), 0.0);
    EXPECT_GE(event.at("tid").asNumber(), 0.0);
  }
  EXPECT_EQ(events.size(), fig.wf.taskCount());
}

TEST(ChromeTrace, TaskSpansSitOnTheirProcessorLane) {
  // Every Task span is exported on the processors process (pid 1), on the
  // thread whose tid is the span's lane in the store.
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.processors = 8;
  const auto run = simulateTraced(wf, cfg);
  const auto events = taskEvents(perfetto(wf, run.trace));
  ASSERT_EQ(events.size(), wf.taskCount());
  for (const auto& e : events) {
    const auto task =
        static_cast<std::uint32_t>(e.at("args").at("task").asNumber());
    const std::uint32_t span = test::taskSpan(run.trace, task);
    ASSERT_NE(span, obs::kNoSpan) << task;
    EXPECT_EQ(e.at("pid").asNumber(), 1.0) << task;
    EXPECT_EQ(e.at("tid").asNumber(), static_cast<double>(run.trace.lane(span)))
        << task;
  }
}

TEST(ChromeTrace, LanesNeverOverlap) {
  // A lane is a processor: within one lane, Task spans must be disjoint.
  // Compared in the store, at full precision: the exported JSON rounds ts
  // and dur separately to 12 significant digits.
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.processors = 8;
  const auto run = simulateTraced(wf, cfg);
  const obs::TraceStore& trace = run.trace;
  EXPECT_LE(trace.laneCount(), cfg.processors);
  std::map<int, std::vector<std::pair<double, double>>> lanes;
  for (std::uint32_t s = 0; s < trace.spanCount(); ++s) {
    if (trace.kind(s) != obs::SpanKind::Task) continue;
    ASSERT_FALSE(trace.isOpen(s));
    lanes[trace.lane(s)].emplace_back(trace.begin(s), trace.end(s));
  }
  ASSERT_FALSE(lanes.empty());
  for (auto& [lane, intervals] : lanes) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, cfg.processors);
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second)
          << "lane " << lane << " overlaps at interval " << i;
  }
}

TEST(ChromeTrace, MontageScaleSmokeTest) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.processors = 16;
  const auto run = simulateTraced(wf, cfg);
  const std::string out = perfetto(wf, run.trace);
  EXPECT_GT(out.size(), 203u * 50u);  // every task serialized
  EXPECT_EQ(taskEvents(out).size(), 203u);
}

// -- text renderers ----------------------------------------------------------

/// montage:1 in cleanup mode on 8 processors with crashes every ~2 minutes
/// and no retries: every mProject that starts fails, and everything below
/// level 1 is abandoned.
test::TracedRun faultedMontageRun() {
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 8;
  cfg.faults.processor.mtbfSeconds = 120.0;
  cfg.faults.retry.maxRetries = 0;
  return simulateTraced(montage::buildMontageWorkflow(1.0), cfg);
}

TEST(Gantt, PrintsAtMostMaxRowsEvenlySampled) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.processors = 8;
  const auto run = simulateTraced(wf, cfg);
  for (const std::size_t maxRows : {std::size_t{0}, std::size_t{1},
                                    std::size_t{40}, std::size_t{203},
                                    std::size_t{500}}) {
    std::ostringstream os;
    printGantt(os, wf, run.trace, maxRows, 60);
    const std::size_t rows = std::min<std::size_t>(maxRows, 203);
    const std::string out = os.str();
    EXPECT_EQ(lineCount(out), rows + 1) << "maxRows " << maxRows;
    EXPECT_EQ(out.rfind("gantt (" + std::to_string(rows) + " of 203 tasks", 0),
              0u)
        << out.substr(0, out.find('\n'));
    // Evenly sampled rows are distinct tasks.
    std::istringstream in(out);
    std::string line;
    std::getline(in, line);
    std::set<std::string> names;
    while (std::getline(in, line)) names.insert(line.substr(62));
    EXPECT_EQ(names.size(), rows) << "maxRows " << maxRows;
  }
}

TEST(Gantt, EmptyWorkflowPrintsOnlyTheHeader) {
  dag::Workflow wf("empty");
  wf.finalize();
  const auto run = simulateTraced(wf, EngineConfig{});
  std::ostringstream os;
  printGantt(os, wf, run.trace);
  EXPECT_EQ(lineCount(os.str()), 1u);
  EXPECT_EQ(os.str().rfind("gantt (0 of 0 tasks", 0), 0u) << os.str();
}

TEST(Gantt, TaskThatNeverStartedGetsNoBar) {
  const auto run = faultedMontageRun();
  ASSERT_GT(run.result.tasksAbandoned, 0u);
  const auto wf = montage::buildMontageWorkflow(1.0);
  std::ostringstream os;
  printGantt(os, wf, run.trace, wf.taskCount(), 60);
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);
  std::size_t bare = 0;
  while (std::getline(in, line))
    if (line.substr(0, 60).find('#') == std::string::npos) ++bare;
  EXPECT_EQ(bare, run.result.tasksAbandoned);
}

TEST(LevelSummary, LevelsWithoutStartsOrFinishesPrintDashes) {
  const auto run = faultedMontageRun();
  ASSERT_GT(run.result.processorCrashes, 0u);
  ASSERT_GT(run.result.tasksAbandoned, 0u);
  ASSERT_EQ(run.result.tasksExecuted, 0u);
  const auto wf = montage::buildMontageWorkflow(1.0);
  std::ostringstream os;
  printLevelSummary(os, wf, run.trace);
  const std::string out = os.str();
  EXPECT_EQ(out.find("-1.0"), std::string::npos) << out;

  // Rows after the header and rule: level, routine, tasks, first start,
  // last finish, cpu time (times print as "<value> <unit>").
  std::istringstream in(out);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  int levels = 0;
  while (std::getline(in, line)) {
    std::istringstream cells(line);
    std::vector<std::string> tokens;
    for (std::string t; cells >> t;) tokens.push_back(t);
    ASSERT_GE(tokens.size(), 6u) << line;
    ++levels;
    if (tokens[0] == "1") {
      // mProject tasks started, then all failed: no finish.
      EXPECT_NE(tokens[3], "-") << line;
      EXPECT_EQ(tokens[5], "-") << line;
    } else {
      EXPECT_EQ(tokens[3], "-") << line;
      EXPECT_EQ(tokens[4], "-") << line;
    }
  }
  EXPECT_EQ(levels, 9);
}

}  // namespace
}  // namespace mcsim::engine
