// Cost-attribution acceptance tests: the report's breakdown must reconcile
// with the engine's authoritative billing — to the cent — on the paper's
// 1-degree Montage workflow, in every data mode and under both CPU billing
// models.
#include "mcsim/obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tests/common/json.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/telemetry.hpp"

namespace mcsim::obs {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

struct AttributedRun {
  engine::ExecutionResult result;
  ReportBuilder builder;
};

AttributedRun runAttributed(const dag::Workflow& wf, engine::DataMode mode,
                            int processors) {
  AttributedRun run;
  engine::EngineConfig cfg;
  cfg.mode = mode;
  cfg.processors = processors;
  cfg.observer = &run.builder;
  run.result = engine::simulateWorkflow(wf, cfg);
  return run;
}

double centRound(Money m) { return std::round(m.value() * 100.0) / 100.0; }

TEST(RunReport, BreakdownReconcilesToTheCentOnMontage) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const cloud::Pricing pricing = kAmazon;

  for (const auto mode :
       {engine::DataMode::Regular, engine::DataMode::DynamicCleanup,
        engine::DataMode::RemoteIO}) {
    AttributedRun run = runAttributed(wf, mode, 8);
    for (const auto billing :
         {cloud::CpuBillingMode::Provisioned, cloud::CpuBillingMode::Usage}) {
      const RunReport report =
          run.builder.build(wf, run.result, pricing, billing);

      // Totals are the engine's own computeCost — identical by construction.
      const auto expected = engine::computeCost(run.result, pricing, billing);
      EXPECT_DOUBLE_EQ(report.totals.total().value(),
                       expected.total().value());

      // The attributed breakdown (staging + every task + idle CPU surplus)
      // must add back up to the billed total, to the cent.
      Money attributed = report.staging.total() + report.unattributedCpu;
      for (const TaskCost& t : report.byTask) attributed += t.cost.total();
      EXPECT_NEAR(attributed.value(), report.totals.total().value(), 0.005)
          << engine::dataModeName(mode) << "/" << report.billing;
      EXPECT_EQ(centRound(attributed), centRound(report.totals.total()))
          << engine::dataModeName(mode) << "/" << report.billing;

      // Levels are a regrouping of the same rows: identical sums.
      Money byLevel;
      std::size_t levelTasks = 0;
      for (const LevelCost& l : report.byLevel) {
        byLevel += l.cost.total();
        levelTasks += l.tasks;
      }
      EXPECT_NEAR(byLevel.value(),
                  (attributed - report.unattributedCpu).value(), 1e-9);
      EXPECT_EQ(levelTasks, report.byTask.size());
    }
  }
}

TEST(RunReport, RawQuantitiesMatchTheExecutionResult) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  for (const auto mode :
       {engine::DataMode::Regular, engine::DataMode::DynamicCleanup,
        engine::DataMode::RemoteIO}) {
    AttributedRun run = runAttributed(wf, mode, 8);

    ResourceUsage sum;
    for (const auto& [task, usage] : run.builder.usage()) {
      sum.cpuSeconds += usage.cpuSeconds;
      sum.storageByteSeconds += usage.storageByteSeconds;
      sum.bytesIn += usage.bytesIn;
      sum.bytesOut += usage.bytesOut;
    }
    EXPECT_NEAR(sum.cpuSeconds, run.result.cpuBusySeconds,
                1e-9 * run.result.cpuBusySeconds);
    EXPECT_NEAR(sum.bytesIn, run.result.bytesIn.value(),
                1e-9 * run.result.bytesIn.value());
    EXPECT_NEAR(sum.bytesOut, run.result.bytesOut.value(),
                1e-9 * run.result.bytesOut.value());
    // Byte-seconds: per-object attribution vs. the usage-curve integral —
    // the same additions in a different order.
    EXPECT_NEAR(sum.storageByteSeconds, run.result.storageByteSeconds,
                1e-6 * run.result.storageByteSeconds);
  }
}

TEST(RunReport, UsageBillingLeavesNoUnattributedCpu) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  AttributedRun run = runAttributed(wf, engine::DataMode::DynamicCleanup, 8);
  const RunReport report =
      run.builder.build(wf, run.result, kAmazon,
                        cloud::CpuBillingMode::Usage);
  EXPECT_NEAR(report.unattributedCpu.value(), 0.0, 1e-6);

  // Provisioned billing pays for 8 processors the whole makespan; the idle
  // surplus must be positive and explicit, not smeared over tasks.
  const RunReport provisioned =
      run.builder.build(wf, run.result, kAmazon,
                        cloud::CpuBillingMode::Provisioned);
  EXPECT_GT(provisioned.unattributedCpu.value(), 0.0);
  // The per-task attributed CPU cost is the same under both models (tasks
  // consume the same CPU seconds); only the surplus differs.
  Money usageCpu, provisionedCpu;
  for (const TaskCost& t : report.byTask) usageCpu += t.cost.cpu;
  for (const TaskCost& t : provisioned.byTask) provisionedCpu += t.cost.cpu;
  EXPECT_NEAR(usageCpu.value(), provisionedCpu.value(), 1e-9);
}

TEST(RunReport, RetriesAreBilledToTheirTask) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  AttributedRun run;
  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::Regular;
  cfg.processors = 4;
  cfg.faults.legacy.probability = 0.2;
  cfg.observer = &run.builder;
  run.result = engine::simulateWorkflow(wf, cfg);
  ASSERT_GT(run.result.taskRetries, 0u);

  double attributedCpu = 0.0;
  for (const auto& [task, usage] : run.builder.usage())
    attributedCpu += usage.cpuSeconds;
  // cpuBusySeconds includes every failed attempt; so must the attribution.
  EXPECT_NEAR(attributedCpu, run.result.cpuBusySeconds, 1e-9);
}

TEST(ReportJson, ParsesAndMirrorsTheReport) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  AttributedRun run = runAttributed(wf, engine::DataMode::DynamicCleanup, 8);
  const RunReport report =
      run.builder.build(wf, run.result, kAmazon,
                        cloud::CpuBillingMode::Provisioned);

  std::ostringstream os;
  writeReportJson(os, report);
  const test::JsonValue v = test::parseJson(os.str());

  EXPECT_EQ(v.at("schema").asString(), "mcsim.report.v1");
  EXPECT_EQ(v.at("workflow").asString(), wf.name());
  EXPECT_EQ(v.at("mode").asString(), "cleanup");
  EXPECT_EQ(v.at("billing").asString(), "provisioned");
  EXPECT_NEAR(v.at("totals").at("total").asNumber(),
              report.totals.total().value(), 1e-9);
  EXPECT_NEAR(v.at("metrics").at("makespan_seconds").asNumber(),
              report.makespanSeconds, 1e-6);
  EXPECT_EQ(v.at("by_task").asArray().size(), report.byTask.size());
  EXPECT_EQ(v.at("by_level").asArray().size(), report.byLevel.size());
  // Level 0 is workflow staging; it carries the stage-in bytes.
  const test::JsonValue& level0 = v.at("by_level").asArray().front();
  EXPECT_EQ(level0.at("level").asNumber(), 0.0);
  EXPECT_DOUBLE_EQ(level0.at("bytes_in").asNumber(),
                   report.staging.usage.bytesIn);
}

TEST(TelemetrySession, WritesAllThreeArtifacts) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mcsim_obs_session_test")
          .string();
  std::filesystem::remove_all(dir);

  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  TelemetrySession session(TelemetryOptions{dir});

  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::DynamicCleanup;
  cfg.processors = 4;
  cfg.observer = session.sink();
  cfg.samplePeriodSeconds = 60.0;
  const auto result = engine::simulateWorkflow(wf, cfg);

  const RunReport report =
      session.finish(wf, result, kAmazon,
                     cloud::CpuBillingMode::Provisioned);
  EXPECT_DOUBLE_EQ(
      report.totals.total().value(),
      engine::computeCost(result, kAmazon,
                          cloud::CpuBillingMode::Provisioned)
          .total()
          .value());

  // events.jsonl: non-empty, every line valid JSON.
  std::ifstream events(session.eventsPath());
  ASSERT_TRUE(events.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(events, line)) {
    test::parseJson(line);
    ++lines;
  }
  EXPECT_GT(lines, wf.taskCount() * 4);  // at least the task lifecycle

  // metrics.prom: exposes the standard instruments.
  std::ifstream metrics(session.metricsPath());
  ASSERT_TRUE(metrics.good());
  std::stringstream prom;
  prom << metrics.rdbuf();
  EXPECT_NE(prom.str().find("mcsim_tasks_finished_total " +
                            std::to_string(wf.taskCount())),
            std::string::npos);

  // report.json parses and matches the returned report.
  std::ifstream reportFile(session.reportPath());
  ASSERT_TRUE(reportFile.good());
  std::stringstream reportText;
  reportText << reportFile.rdbuf();
  const test::JsonValue v = test::parseJson(reportText.str());
  EXPECT_NEAR(v.at("totals").at("total").asNumber(),
              report.totals.total().value(), 1e-9);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcsim::obs
