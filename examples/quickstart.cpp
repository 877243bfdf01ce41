// Quickstart: build the paper's 1-degree Montage workflow, simulate one run
// on an 8-processor cloud allocation, and price it with the 2008 Amazon fee
// structure.
//
//   ./examples/quickstart [degrees] [processors] [telemetry-dir]
//
// With a third argument, the run is observed end to end: events.jsonl,
// metrics.prom and report.json land in that directory.
#include <cstdlib>
#include <iostream>
#include <optional>

#include "mcsim/mcsim.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;

  const double degrees = argc > 1 ? std::atof(argv[1]) : 1.0;
  const int processors = argc > 2 ? std::atoi(argv[2]) : 8;

  // 1. Build a workload.  The Montage factory generates the paper's
  //    calibrated workflows; any DAG built via dag::Workflow works the same.
  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  std::cout << "workflow: " << wf.name() << " (" << wf.taskCount()
            << " tasks, " << wf.fileCount() << " files, "
            << formatBytes(wf.totalFileBytes()) << " total data, CCR "
            << wf.ccr(montage::kReferenceBandwidthBytesPerSec) << ")\n\n";

  // 2. Configure the execution: data-management mode, processors, link.
  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::DynamicCleanup;  // the paper's cheapest mode
  cfg.processors = processors;

  // Observe the run.  A span sink records its timeline for the level
  // summary below; optionally a telemetry session captures every event,
  // and finish() below turns them into the on-disk artifacts.
  obs::TraceStore trace;
  obs::SpanSink spans(trace);
  obs::FanOutSink observers;
  observers.add(&spans);
  std::optional<obs::TelemetrySession> telemetry;
  if (argc > 3) {
    telemetry.emplace(obs::TelemetryOptions{argv[3]});
    observers.add(telemetry->sink());
    cfg.samplePeriodSeconds = 60.0;
  }
  cfg.observer = &observers;

  // 3. Simulate.
  const engine::ExecutionResult result = engine::simulateWorkflow(wf, cfg);
  std::cout << engine::summarize(wf, result) << "\n\n";
  engine::printLevelSummary(std::cout, wf, trace);

  // 4. Price it, both ways the paper bills CPU.
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const auto provisioned = engine::computeCost(
      result, amazon, cloud::CpuBillingMode::Provisioned);
  const auto usage =
      engine::computeCost(result, amazon, cloud::CpuBillingMode::Usage);

  std::cout << "\ncosts (Amazon 2008 fees):\n";
  Table t({"billing", "cpu", "storage", "in", "out", "total"});
  t.addRow({"provisioned (Q1)", analysis::moneyCell(provisioned.cpu),
            analysis::moneyCell(provisioned.storage),
            analysis::moneyCell(provisioned.transferIn),
            analysis::moneyCell(provisioned.transferOut),
            analysis::moneyCell(provisioned.total())});
  t.addRow({"usage (Q2)", analysis::moneyCell(usage.cpu),
            analysis::moneyCell(usage.storage),
            analysis::moneyCell(usage.transferIn),
            analysis::moneyCell(usage.transferOut),
            analysis::moneyCell(usage.total())});
  t.print(std::cout);

  if (telemetry) {
    const obs::RunReport report = telemetry->finish(
        wf, result, amazon, cloud::CpuBillingMode::Provisioned);
    std::cout << "\ntelemetry written to " << argv[3] << " ("
              << report.byTask.size() << " tasks attributed, report total "
              << formatMoney(report.totals.total()) << ")\n";
  }
  return 0;
}
