#include "mcsim/engine/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "mcsim/util/table.hpp"
#include "mcsim/util/units.hpp"

namespace mcsim::engine {
namespace {

/// One task's Task span, read back from the store.
struct TaskWindow {
  bool started = false;
  double start = 0.0;
  double end = 0.0;       ///< Where the bar stops (failure included).
  bool finished = false;  ///< Closed and not failed.
};

std::vector<TaskWindow> taskWindows(const dag::Workflow& wf,
                                    const obs::TraceStore& trace,
                                    const char* fn) {
  if (trace.spanCount() == 0 && wf.taskCount() > 0)
    throw std::invalid_argument(
        std::string(fn) +
        ": the trace is empty (observe the run with an obs::SpanSink)");
  std::vector<TaskWindow> windows(wf.taskCount());
  for (std::uint32_t s = 0; s < trace.spanCount(); ++s) {
    if (trace.kind(s) != obs::SpanKind::Task) continue;
    const std::uint32_t task = trace.task(s);
    if (task >= windows.size()) continue;
    TaskWindow& w = windows[task];
    w.started = true;
    w.start = trace.begin(s);
    w.end = trace.isOpen(s) ? trace.maxTime() : trace.end(s);
    w.finished = !trace.isOpen(s) && !trace.isFailed(s);
  }
  return windows;
}

std::string fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

void printLevelSummary(std::ostream& os, const dag::Workflow& wf,
                       const obs::TraceStore& trace) {
  const std::vector<TaskWindow> windows =
      taskWindows(wf, trace, "printLevelSummary");
  struct LevelStats {
    std::size_t tasks = 0;
    std::optional<double> firstStart;
    std::optional<double> lastFinish;
    double cpuSeconds = 0.0;
    std::string routine;
  };
  std::map<int, LevelStats> levels;
  for (const dag::Task& t : wf.tasks()) {
    LevelStats& s = levels[t.level];
    const TaskWindow& w = windows[t.id];
    ++s.tasks;
    if (w.started)
      s.firstStart = std::min(s.firstStart.value_or(w.start), w.start);
    if (w.finished)
      s.lastFinish = std::max(s.lastFinish.value_or(w.end), w.end);
    s.cpuSeconds += t.runtimeSeconds;
    if (s.routine.empty()) s.routine = t.type;
    else if (s.routine != t.type) s.routine = "(mixed)";
  }
  const auto timeCell = [](const std::optional<double>& t) {
    return t ? formatDuration(*t) : std::string("-");
  };
  Table table({"level", "routine", "tasks", "first start", "last finish",
               "cpu time"});
  for (const auto& [level, s] : levels) {
    table.addRow({std::to_string(level), s.routine, std::to_string(s.tasks),
                  timeCell(s.firstStart), timeCell(s.lastFinish),
                  formatDuration(s.cpuSeconds)});
  }
  table.print(os);
}

void printGantt(std::ostream& os, const dag::Workflow& wf,
                const obs::TraceStore& trace, std::size_t maxRows,
                std::size_t width) {
  const std::vector<TaskWindow> windows = taskWindows(wf, trace, "printGantt");
  if (width < 8) width = 8;
  const double span = std::max(trace.maxTime(), 1e-9);
  // Tasks that never started sort first; ties keep task-id order.
  std::vector<dag::TaskId> byStart(wf.taskCount());
  std::iota(byStart.begin(), byStart.end(), dag::TaskId{0});
  const auto startKey = [&](dag::TaskId id) {
    return windows[id].started ? windows[id].start : -1.0;
  };
  std::stable_sort(byStart.begin(), byStart.end(),
                   [&](dag::TaskId a, dag::TaskId b) {
                     return startKey(a) < startKey(b);
                   });
  const std::size_t rows = std::min(maxRows, byStart.size());
  os << "gantt (" << rows << " of " << byStart.size() << " tasks, span "
     << formatDuration(span) << ")\n";
  const auto col = [&](double t) {
    return std::min(width - 1,
                    static_cast<std::size_t>(t / span * (width - 1)));
  };
  for (std::size_t r = 0; r < rows; ++r) {
    // Row r shows the task at rank floor(r * n / rows): evenly spaced ranks
    // from the first start on, every task when rows == n.
    const dag::TaskId id = byStart[r * byStart.size() / rows];
    const TaskWindow& w = windows[id];
    std::string row(width, '.');
    if (w.started)
      for (std::size_t c = col(w.start); c <= col(w.end); ++c) row[c] = '#';
    os << row << "  " << wf.task(id).name << '\n';
  }
}

std::string summarize(const dag::Workflow& wf, const ExecutionResult& result) {
  std::ostringstream os;
  os << wf.name() << " [" << dataModeName(result.mode) << ", "
     << result.processors << " proc]: makespan "
     << formatDuration(result.makespanSeconds) << ", cpu "
     << formatDuration(result.cpuBusySeconds) << ", in "
     << formatBytes(result.bytesIn) << ", out " << formatBytes(result.bytesOut)
     << ", storage " << fixed1(result.storageGBHours()) << " GB-h, peak "
     << formatBytes(result.peakStorageBytes) << ", utilization "
     << fixed1(result.utilization() * 100.0) << "%";
  return os.str();
}

}  // namespace mcsim::engine
