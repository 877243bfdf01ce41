// Human-readable rendering of a traced execution: a per-level summary and a
// text Gantt chart.  Used by the examples and by failure-diagnosis in tests.
//
// Both renderers read the run's span store: observe the run with an
// obs::SpanSink and pass its obs::TraceStore.  Each dispatched task has one
// Task span (retries hold the processor, so they stay inside it); its begin
// is the task's start, and its end is the task's finish unless the span is
// marked failed.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::engine {

/// Per-level timing summary: routine, task count, first start, last finish
/// and CPU time per level.  A level with no started (finished) task prints
/// "-" as its first start (last finish).  Throws std::invalid_argument if
/// `trace` is empty but `wf` has tasks.
void printLevelSummary(std::ostream& os, const dag::Workflow& wf,
                       const obs::TraceStore& trace);

/// A coarse text Gantt chart: at most `maxRows` tasks, evenly sampled in
/// start order, `width` columns spanning the traced run.  A bar covers its
/// task's Task span, up to where the task failed if it did; a task that
/// never started gets no bar.  Throws like printLevelSummary.
void printGantt(std::ostream& os, const dag::Workflow& wf,
                const obs::TraceStore& trace, std::size_t maxRows = 40,
                std::size_t width = 72);

/// One-paragraph summary of a run (works without tracing).
std::string summarize(const dag::Workflow& wf, const ExecutionResult& result);

}  // namespace mcsim::engine
