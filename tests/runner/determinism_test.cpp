// The runner's headline guarantee, tested end to end: a sweep run on an
// 8-worker JobQueue is byte-identical to the serial inline path (no queue)
// — same points, same merged JSONL telemetry stream, same report.json per
// scenario.  Figures must never depend on the machine's core count.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "mcsim/analysis/experiments.hpp"
#include "mcsim/analysis/reliability.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/report.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim {
namespace {

const cloud::Pricing kAmazon = cloud::Pricing::amazon2008();

/// The provisioning sweep's merged JSONL stream on `queue` (nullptr =
/// inline).
std::string sweepJsonl(const dag::Workflow& wf, runner::JobQueue* queue) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  analysis::ProvisioningSweepConfig config;
  config.processorCounts = {1, 2, 4, 8};
  config.queue = queue;
  config.observer = &sink;
  analysis::provisioningSweep(wf, kAmazon, config);
  return os.str();
}

TEST(Determinism, ProvisioningPointsIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  analysis::ProvisioningSweepConfig config;
  config.processorCounts = {1, 2, 4, 8, 16};

  const auto serial = analysis::provisioningSweep(wf, kAmazon, config);
  runner::JobQueue pool({.workers = 8});
  config.queue = &pool;
  const auto parallel = analysis::provisioningSweep(wf, kAmazon, config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].processors, parallel[i].processors) << i;
    EXPECT_EQ(serial[i].makespanSeconds, parallel[i].makespanSeconds) << i;
    EXPECT_EQ(serial[i].cpuCost.value(), parallel[i].cpuCost.value()) << i;
    EXPECT_EQ(serial[i].storageCost.value(), parallel[i].storageCost.value())
        << i;
    EXPECT_EQ(serial[i].storageCleanupCost.value(),
              parallel[i].storageCleanupCost.value())
        << i;
    EXPECT_EQ(serial[i].transferCost.value(), parallel[i].transferCost.value())
        << i;
    EXPECT_EQ(serial[i].totalCost.value(), parallel[i].totalCost.value()) << i;
    EXPECT_EQ(serial[i].utilization, parallel[i].utilization) << i;
  }
}

TEST(Determinism, MergedJsonlByteIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  runner::JobQueue pool({.workers = 8});
  const std::string serial = sweepJsonl(wf, nullptr);
  const std::string parallel = sweepJsonl(wf, &pool);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, DataModeRowsIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  analysis::DataModeComparisonConfig config;
  const auto serial = analysis::dataModeComparison(wf, kAmazon, config);
  runner::JobQueue pool({.workers = 8});
  config.queue = &pool;
  const auto parallel = analysis::dataModeComparison(wf, kAmazon, config);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].makespanSeconds, parallel[i].makespanSeconds) << i;
    EXPECT_EQ(serial[i].storageGBHours, parallel[i].storageGBHours) << i;
    EXPECT_EQ(serial[i].totalCost().value(), parallel[i].totalCost().value())
        << i;
  }
}

TEST(Determinism, CcrPointsIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  analysis::CcrSweepConfig config;
  config.ccrTargets = {0.1, 0.5, 2.0};
  const auto serial = analysis::ccrSweep(wf, kAmazon, config);
  runner::JobQueue pool({.workers = 8});
  config.queue = &pool;
  const auto parallel = analysis::ccrSweep(wf, kAmazon, config);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].makespanSeconds, parallel[i].makespanSeconds) << i;
    EXPECT_EQ(serial[i].totalCost.value(), parallel[i].totalCost.value()) << i;
  }
}

TEST(Determinism, ReliabilityPointsIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  analysis::ReliabilityConfig rc;
  rc.mtbfSeconds = {600.0, 3600.0};
  const auto serial = analysis::reliabilitySweep(wf, kAmazon, rc);
  runner::JobQueue pool({.workers = 8});
  rc.queue = &pool;
  const auto parallel = analysis::reliabilitySweep(wf, kAmazon, rc);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].makespanSeconds, parallel[i].makespanSeconds) << i;
    EXPECT_EQ(serial[i].processorCrashes, parallel[i].processorCrashes) << i;
    EXPECT_EQ(serial[i].taskRetries, parallel[i].taskRetries) << i;
    EXPECT_EQ(serial[i].totalCost.value(), parallel[i].totalCost.value()) << i;
  }
}

/// Per-scenario report.json byte-identity: replay each scenario's retained
/// event stream through a ReportBuilder and serialize.
TEST(Determinism, PerScenarioReportJsonByteIdenticalAcrossJobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  std::vector<runner::ScenarioSpec> specs;
  for (int p : {1, 4, 16}) {
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = p;
    specs.push_back(spec);
  }

  auto reports = [&](runner::JobQueue* queue) {
    const auto results =
        runner::runOnQueue(queue, specs, {.keepEvents = true});
    std::vector<std::string> out;
    for (const runner::ScenarioResult& r : results) {
      obs::ReportBuilder builder;
      for (const obs::Event& e : r.events)
        if (builder.accepts(obs::kind(e))) builder.onEvent(e);
      std::ostringstream os;
      obs::writeReportJson(
          os, builder.build(wf, r.result, kAmazon,
                            cloud::CpuBillingMode::Provisioned));
      out.push_back(os.str());
    }
    return out;
  };

  runner::JobQueue pool({.workers = 8});
  const auto serial = reports(nullptr);
  const auto parallel = reports(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
}

}  // namespace
}  // namespace mcsim
