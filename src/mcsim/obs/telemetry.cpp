#include "mcsim/obs/telemetry.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

namespace mcsim::obs {

TelemetrySession::TelemetrySession(TelemetryOptions options)
    : options_(std::move(options)) {
  if (options_.directory.empty())
    throw std::invalid_argument("TelemetrySession: directory required");
  std::filesystem::create_directories(options_.directory);
  eventsFile_.open(eventsPath(), std::ios::trunc);
  if (!eventsFile_)
    throw std::runtime_error("TelemetrySession: cannot write " + eventsPath());
  fanOut_.add(&jsonl_);
  fanOut_.add(&metrics_);
  fanOut_.add(&report_);
}

std::string TelemetrySession::eventsPath() const {
  return options_.directory + "/events.jsonl";
}
std::string TelemetrySession::metricsPath() const {
  return options_.directory + "/metrics.prom";
}
std::string TelemetrySession::reportPath() const {
  return options_.directory + "/report.json";
}

RunReport TelemetrySession::finish(const dag::Workflow& wf,
                                   const engine::ExecutionResult& result,
                                   const cloud::Pricing& pricing,
                                   cloud::CpuBillingMode cpuMode) {
  eventsFile_.flush();
  {
    std::ofstream out(metricsPath(), std::ios::trunc);
    if (!out)
      throw std::runtime_error("TelemetrySession: cannot write " +
                               metricsPath());
    registry_.writePrometheus(out);
  }
  RunReport runReport = report_.build(wf, result, pricing, cpuMode);
  std::ofstream out(reportPath(), std::ios::trunc);
  if (!out)
    throw std::runtime_error("TelemetrySession: cannot write " + reportPath());
  writeReportJson(out, runReport);
  return runReport;
}

}  // namespace mcsim::obs
