// Traced engine runs for tests: simulate with an obs::SpanSink observing
// the run (next to any observer the config already names), then read
// per-task spans back from the store.
#pragma once

#include <cstdint>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::test {

struct TracedRun {
  engine::ExecutionResult result;
  obs::TraceStore trace;
};

inline TracedRun simulateTraced(const dag::Workflow& wf,
                                engine::EngineConfig config) {
  TracedRun run;
  obs::SpanSink spans(run.trace);
  obs::FanOutSink observers;
  observers.add(&spans);
  observers.add(config.observer);  // add() ignores nullptr
  config.observer = &observers;
  run.result = engine::simulateWorkflow(wf, config);
  return run;
}

/// The first span of `kind` for `task`, or obs::kNoSpan.  Each dispatched
/// task has exactly one Task span.
inline std::uint32_t firstSpan(const obs::TraceStore& trace,
                               obs::SpanKind kind, std::uint32_t task) {
  for (std::uint32_t s = 0; s < trace.spanCount(); ++s)
    if (trace.kind(s) == kind && trace.task(s) == task) return s;
  return obs::kNoSpan;
}

inline std::uint32_t taskSpan(const obs::TraceStore& trace,
                              std::uint32_t task) {
  return firstSpan(trace, obs::SpanKind::Task, task);
}

}  // namespace mcsim::test
