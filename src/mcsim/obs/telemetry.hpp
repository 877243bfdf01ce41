// TelemetrySession: one-stop wiring for the common "run a workflow with
// full telemetry" case — owns a JSONL event log, a metrics registry fed by
// a MetricsSink, and a ReportBuilder, fanned out behind a single Sink* to
// hand to EngineConfig::observer.  finish() writes the on-disk artifacts:
//
//   <dir>/events.jsonl   every event, one JSON object per line
//   <dir>/metrics.prom   Prometheus text exposition of the run's metrics
//   <dir>/report.json    cost attribution by task / level / resource
#pragma once

#include <fstream>
#include <string>

#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/report.hpp"
#include "mcsim/obs/sink.hpp"

namespace mcsim::obs {

struct TelemetryOptions {
  std::string directory;  ///< Created (recursively) if missing.
};

class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryOptions options);

  /// Install as EngineConfig::observer (valid for the session's lifetime).
  Sink* sink() { return &fanOut_; }

  /// Flush events.jsonl and write metrics.prom + report.json.  Returns the
  /// built report.  Call once, after simulateWorkflow returns.
  RunReport finish(const dag::Workflow& wf,
                   const engine::ExecutionResult& result,
                   const cloud::Pricing& pricing,
                   cloud::CpuBillingMode cpuMode);

  std::string eventsPath() const;
  std::string metricsPath() const;
  std::string reportPath() const;

 private:
  TelemetryOptions options_;
  std::ofstream eventsFile_;
  JsonlSink jsonl_{eventsFile_};
  MetricsRegistry registry_;
  MetricsSink metrics_{registry_};
  ReportBuilder report_;
  FanOutSink fanOut_;
};

}  // namespace mcsim::obs
