// Property tests for the fault-injected engine over random DAGs: every
// task's fate is accounted for, retry budgets are respected in the event
// stream itself, preempted work is billed exactly once, and the attributed
// cost report still reconciles with engine::computeCost to the cent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "tests/common/traced.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/faults/faults.hpp"
#include "mcsim/obs/report.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::faults {
namespace {

/// Collects the fault-relevant lifecycle events of one run, keyed by task.
class FaultLog final : public obs::Sink {
 public:
  void onEvent(const obs::Event& event) override {
    std::visit(
        [this](const auto& p) {
          using T = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<T, obs::ProcessorCrashed>)
            crashed_.insert(p.task);
          else if constexpr (std::is_same_v<T, obs::TaskRetryScheduled>)
            ++retriesGranted_[p.task];
          else if constexpr (std::is_same_v<T, obs::TaskFinished>)
            finished_.insert(p.task);
          else if constexpr (std::is_same_v<T, obs::TaskFailed>)
            failed_.insert(p.task);
          else if constexpr (std::is_same_v<T, obs::TaskAbandoned>)
            abandoned_.insert(p.task);
        },
        event.payload);
  }

  std::set<std::uint32_t> crashed_, finished_, failed_, abandoned_;
  std::map<std::uint32_t, int> retriesGranted_;
};

class FaultProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    wf_ = std::make_unique<dag::Workflow>(dag::makeRandomWorkflow(GetParam()));
    cfg_.processors = 4;
    cfg_.faults.processor.mtbfSeconds = 200.0;  // crashes are common
    cfg_.faults.retry.maxRetries = 3;
    cfg_.faults.retry.delaySeconds = 2.0;
    cfg_.faults.seed = GetParam() + 1;
  }
  std::unique_ptr<dag::Workflow> wf_;
  engine::EngineConfig cfg_;
};

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperties,
                         ::testing::Range<std::uint64_t>(700, 724));

TEST_P(FaultProperties, EveryTaskCompletesOrIsReportedFailedOrAbandoned) {
  FaultLog log;
  cfg_.observer = &log;
  const auto r = engine::simulateWorkflow(*wf_, cfg_);

  EXPECT_EQ(r.tasksExecuted + r.tasksFailed + r.tasksAbandoned,
            wf_->taskCount());
  EXPECT_EQ(log.finished_.size(), r.tasksExecuted);
  EXPECT_EQ(log.failed_.size(), r.tasksFailed);
  EXPECT_EQ(log.abandoned_.size(), r.tasksAbandoned);

  // Every preempted task was eventually completed or reported failed —
  // never silently dropped (abandonment only happens to tasks that never
  // started).
  for (const std::uint32_t task : log.crashed_) {
    EXPECT_TRUE(log.finished_.count(task) || log.failed_.count(task))
        << "task " << task << " crashed and then vanished";
  }
  // The three fates are mutually exclusive.
  for (const std::uint32_t task : log.finished_) {
    EXPECT_FALSE(log.failed_.count(task));
    EXPECT_FALSE(log.abandoned_.count(task));
  }
  for (const std::uint32_t task : log.failed_)
    EXPECT_FALSE(log.abandoned_.count(task));
}

TEST_P(FaultProperties, NoTaskIsRetriedPastItsBudgetInTheEventStream) {
  FaultLog log;
  cfg_.observer = &log;
  const auto r = engine::simulateWorkflow(*wf_, cfg_);

  std::size_t totalRetries = 0;
  for (const auto& [task, granted] : log.retriesGranted_) {
    EXPECT_LE(granted, cfg_.faults.retry.maxRetries);
    totalRetries += static_cast<std::size_t>(granted);
  }
  EXPECT_EQ(totalRetries, r.taskRetries);
  // A permanently failed task consumed its whole budget first.
  for (const std::uint32_t task : log.failed_)
    EXPECT_EQ(log.retriesGranted_[task], cfg_.faults.retry.maxRetries);
}

TEST_P(FaultProperties, BilledCpuIsFinishedWorkPlusWaste) {
  const auto r = engine::simulateWorkflow(*wf_, cfg_);
  // Each completed task bills its full runtime exactly once; every crash
  // bills exactly the partial time it ran.  tasksExecuted runtimes are not
  // uniform, so recompute the finished-work sum from the trace: a task
  // finished iff its Task span closed without being marked failed.
  const auto [rt, trace] = test::simulateTraced(*wf_, cfg_);
  double finishedWork = 0.0;
  for (const dag::Task& t : wf_->tasks()) {
    const std::uint32_t span = test::taskSpan(trace, t.id);
    if (span != obs::kNoSpan && !trace.isOpen(span) && !trace.isFailed(span))
      finishedWork += t.runtimeSeconds;
  }
  EXPECT_NEAR(rt.cpuBusySeconds, finishedWork + rt.wastedCpuSeconds, 1e-6);
  // Tracing must not perturb the simulation.
  EXPECT_DOUBLE_EQ(r.cpuBusySeconds, rt.cpuBusySeconds);
  EXPECT_EQ(r.processorCrashes, rt.processorCrashes);
}

TEST_P(FaultProperties, AttributedCostStillReconcilesToTheCent) {
  obs::ReportBuilder builder;
  cfg_.observer = &builder;
  const auto r = engine::simulateWorkflow(*wf_, cfg_);

  const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  for (const auto billing :
       {cloud::CpuBillingMode::Usage, cloud::CpuBillingMode::Provisioned}) {
    const obs::RunReport report = builder.build(*wf_, r, pricing, billing);
    const auto expected = engine::computeCost(r, pricing, billing);
    EXPECT_DOUBLE_EQ(report.totals.total().value(), expected.total().value());

    Money attributed = report.staging.total() + report.unattributedCpu;
    for (const obs::TaskCost& t : report.byTask) attributed += t.cost.total();
    EXPECT_NEAR(attributed.value(), expected.total().value(), 0.01)
        << "attributed breakdown drifted from the billed total";
  }
}

TEST_P(FaultProperties, RemoteModeFaultsOnlyAddTransfers) {
  cfg_.mode = engine::DataMode::RemoteIO;
  engine::EngineConfig clean = cfg_;
  clean.faults = {};
  const auto base = engine::simulateWorkflow(*wf_, clean);
  const auto faulty = engine::simulateWorkflow(*wf_, cfg_);
  if (faulty.completed()) {
    // All work eventually done: outputs delivered in full, inputs staged at
    // least as often as the fault-free run.
    EXPECT_NEAR(faulty.bytesOut.value(), base.bytesOut.value(), 1.0);
    EXPECT_GE(faulty.bytesIn.value(), base.bytesIn.value() - 1.0);
  } else {
    // An incomplete run cannot have delivered more than the baseline.
    EXPECT_LE(faulty.bytesOut.value(), base.bytesOut.value() + 1.0);
  }
  EXPECT_GE(faulty.cpuBusySeconds, faulty.wastedCpuSeconds - 1e-9);
}

TEST_P(FaultProperties, DeadlineNeverExtendsTheRun) {
  const auto free = engine::simulateWorkflow(*wf_, cfg_);
  cfg_.faults.deadlineSeconds = free.makespanSeconds * 0.6;
  const auto bounded = engine::simulateWorkflow(*wf_, cfg_);
  EXPECT_LE(bounded.makespanSeconds, cfg_.faults.deadlineSeconds + 1e-9);
  EXPECT_TRUE(bounded.deadlineExceeded);
  EXPECT_LE(bounded.tasksExecuted, free.tasksExecuted);
}

}  // namespace
}  // namespace mcsim::faults
