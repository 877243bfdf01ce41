#include "mcsim/runner/jobs.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <stdexcept>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::runner {
namespace {

dag::Workflow smallWorkflow() { return montage::buildMontageWorkflow(0.2); }

ScenarioSpec makeSpec(const dag::Workflow& wf, int processors) {
  ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.processors = processors;
  spec.label = "p=" + std::to_string(processors);
  return spec;
}

std::vector<ScenarioSpec> ladder(const dag::Workflow& wf) {
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 4, 8}) specs.push_back(makeSpec(wf, p));
  return specs;
}

/// A job observer that accepts one scenario kind and blocks in onEvent
/// until released.  It holds its job in finalization, and a one-worker
/// queue finalizes a job before it activates the next, so every job
/// submitted behind it stays Queued until the gate opens.
class Gate final : public obs::Sink {
 public:
  void onEvent(const obs::Event&) override { open_.wait(); }
  bool accepts(obs::EventKind kind) const override {
    return kind == obs::EventKind::RunFinished;
  }
  void release() { open_.count_down(); }

 private:
  std::latch open_{1};
};

/// Opens the gate when the scope ends, also on a failed ASSERT, so no
/// worker is left blocked when the queue's destructor joins it.
struct OpenAtScopeEnd {
  Gate& gate;
  ~OpenAtScopeEnd() { gate.release(); }
};

TEST(JobState, StableWireNames) {
  EXPECT_STREQ(jobStateName(JobState::Queued), "queued");
  EXPECT_STREQ(jobStateName(JobState::Running), "running");
  EXPECT_STREQ(jobStateName(JobState::Completed), "completed");
  EXPECT_STREQ(jobStateName(JobState::Failed), "failed");
  EXPECT_STREQ(jobStateName(JobState::Cancelled), "cancelled");
}

TEST(JobQueue, RejectsNegativeWorkers) {
  JobQueueOptions options;
  options.workers = -1;
  EXPECT_THROW(JobQueue{options}, std::invalid_argument);
  options.workers = 1;
  options.maxQueuedJobs = 0;
  EXPECT_THROW(JobQueue{options}, std::invalid_argument);
}

TEST(JobQueue, SubmitWaitLifecycle) {
  const dag::Workflow wf = smallWorkflow();
  JobQueueOptions qo;
  qo.workers = 2;
  JobQueue queue(qo);

  JobRequest request;
  request.scenarios = ladder(wf);
  request.label = "lifecycle";
  const JobId id = queue.submit(std::move(request));
  EXPECT_GE(id, 1u);

  const JobOutcome outcome = queue.wait(id);
  EXPECT_EQ(outcome.id, id);
  EXPECT_EQ(outcome.state, JobState::Completed);
  EXPECT_EQ(outcome.label, "lifecycle");
  ASSERT_EQ(outcome.results.size(), 4u);
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    EXPECT_EQ(outcome.results[i].index, static_cast<int>(i));
    EXPECT_TRUE(outcome.results[i].result.completed());
  }
  EXPECT_TRUE(outcome.error.empty());
  EXPECT_EQ(outcome.exception, nullptr);

  // The id is retired: a second wait and a status both throw.
  EXPECT_THROW(queue.wait(id), std::invalid_argument);
  EXPECT_THROW(queue.status(id), std::invalid_argument);
}

TEST(JobQueue, InlineModeExecutesInCaller) {
  const dag::Workflow wf = smallWorkflow();
  JobQueueOptions qo;
  qo.workers = 0;
  JobQueue queue(qo);

  JobRequest request;
  request.scenarios = ladder(wf);
  const JobId id = queue.submit(std::move(request));
  // Inline mode resolves before submit returns.
  const JobStatus status = queue.status(id);
  EXPECT_EQ(status.state, JobState::Completed);
  EXPECT_EQ(status.completedScenarios, 4u);
  EXPECT_EQ(queue.wait(id).results.size(), 4u);
}

TEST(JobQueue, StatusTracksProgress) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue queue({.workers = 2});

  JobRequest request;
  request.scenarios = ladder(wf);
  request.label = "progress";
  const JobId id = queue.submit(std::move(request));
  const JobStatus status = queue.status(id);
  EXPECT_EQ(status.id, id);
  EXPECT_EQ(status.totalScenarios, 4u);
  EXPECT_EQ(status.label, "progress");
  queue.wait(id);
}

TEST(JobQueue, RunIsSubmitPlusWait) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue queue({.workers = 2});
  const auto results = queue.run(ladder(wf));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results.back().result.completed());
}

TEST(JobQueue, ValidatesSpecsAtSubmit) {
  JobQueue queue({.workers = 1});
  JobRequest request;
  request.scenarios.emplace_back();  // no workflow
  EXPECT_THROW(queue.submit(std::move(request)), std::invalid_argument);

  const dag::Workflow wf = smallWorkflow();
  obs::CollectingSink sink;
  JobRequest withObserver;
  withObserver.scenarios = {makeSpec(wf, 2)};
  withObserver.scenarios[0].config.observer = &sink;
  EXPECT_THROW(queue.submit(std::move(withObserver)), std::invalid_argument);
}

TEST(JobQueue, FailureWinsAtLowestIndexAndRethrows) {
  const dag::Workflow wf = smallWorkflow();
  // processors < 1 fails inside the engine for that scenario only.
  std::vector<ScenarioSpec> specs = ladder(wf);
  specs[1].config.processors = 0;

  JobQueue queue({.workers = 4});
  JobRequest request;
  request.scenarios = specs;
  const JobId id = queue.submit(std::move(request));
  const JobOutcome outcome = queue.wait(id);
  EXPECT_EQ(outcome.state, JobState::Failed);
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_FALSE(outcome.error.empty());
  ASSERT_NE(outcome.exception, nullptr);
  EXPECT_THROW(std::rethrow_exception(outcome.exception),
               std::invalid_argument);

  // run() surfaces the stored exception directly.
  EXPECT_THROW(queue.run(specs), std::invalid_argument);
}

TEST(JobQueue, CancelQueuedJobResolvesWithoutRunning) {
  const dag::Workflow wf = smallWorkflow();
  Gate gate;
  // One worker, deep queue: the gate holds the first job, so the second
  // is still Queued when it is cancelled.
  JobQueue queue({.workers = 1, .maxQueuedJobs = 8});

  JobId running = 0;
  JobId queued = 0;
  {
    const OpenAtScopeEnd open{gate};
    JobRequest first;
    first.scenarios = ladder(wf);
    first.options.observer = &gate;
    running = queue.submit(std::move(first));

    JobRequest second;
    second.scenarios = ladder(wf);
    queued = queue.submit(std::move(second));

    EXPECT_TRUE(queue.cancel(queued));
    EXPECT_FALSE(queue.cancel(queued));  // already terminal
  }
  const JobOutcome cancelled = queue.wait(queued);
  EXPECT_EQ(cancelled.state, JobState::Cancelled);
  EXPECT_TRUE(cancelled.results.empty());

  EXPECT_EQ(queue.wait(running).state, JobState::Completed);
  EXPECT_FALSE(queue.cancel(9999));  // unknown id
}

TEST(JobQueue, TrySubmitRefusesWhenFull) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue queue({.workers = 1, .maxQueuedJobs = 1});

  JobRequest first;
  first.scenarios = ladder(wf);
  const JobId a = queue.submit(std::move(first));

  // The worker may or may not have activated `a` yet; fill the admission
  // queue until trySubmit refuses, proving the bound is enforced.
  std::vector<JobId> admitted{a};
  int refused = 0;
  for (int i = 0; i < 8; ++i) {
    JobRequest next;
    next.scenarios = {makeSpec(wf, 1)};
    if (const auto id = queue.trySubmit(std::move(next)))
      admitted.push_back(*id);
    else
      ++refused;
  }
  EXPECT_GT(refused, 0);
  for (const JobId id : admitted)
    EXPECT_NE(queue.wait(id).state, JobState::Failed);
}

TEST(JobQueue, StatsCountJobsByOutcome) {
  const dag::Workflow wf = smallWorkflow();
  Gate gate;
  JobQueue queue({.workers = 1, .maxQueuedJobs = 8});
  EXPECT_EQ(queue.stats().submitted, 0u);

  JobId completed = 0;
  JobId failed = 0;
  {
    const OpenAtScopeEnd open{gate};
    JobRequest first;
    first.scenarios = ladder(wf);
    first.options.observer = &gate;
    completed = queue.submit(std::move(first));

    // processors < 1 fails inside the engine.
    JobRequest doomed;
    doomed.scenarios = {makeSpec(wf, 1), makeSpec(wf, 0)};
    failed = queue.submit(std::move(doomed));

    JobRequest third;
    third.scenarios = ladder(wf);
    EXPECT_TRUE(queue.cancel(queue.submit(std::move(third))));

    // The gate holds the first job; only the cancel has resolved.
    const JobQueueStats held = queue.stats();
    EXPECT_EQ(held.submitted, 3u);
    EXPECT_EQ(held.completed, 0u);
    EXPECT_EQ(held.failed, 0u);
    EXPECT_EQ(held.cancelled, 1u);
    EXPECT_EQ(held.resolvedScenarios, 4u);
  }
  EXPECT_EQ(queue.wait(completed).state, JobState::Completed);
  EXPECT_EQ(queue.wait(failed).state, JobState::Failed);

  const JobQueueStats done = queue.stats();
  EXPECT_EQ(done.submitted, 3u);
  EXPECT_EQ(done.completed, 1u);
  EXPECT_EQ(done.failed, 1u);
  EXPECT_EQ(done.cancelled, 1u);
  EXPECT_EQ(done.resolvedScenarios, 10u);
}

TEST(JobQueue, SharedCacheServesRepeatSubmissions) {
  const dag::Workflow wf = smallWorkflow();
  ScenarioMemoCache cache;
  JobQueueOptions qo;
  qo.workers = 2;
  qo.cache = &cache;
  JobQueue queue(qo);

  JobRequest first;
  first.scenarios = ladder(wf);
  const JobOutcome cold = queue.wait(queue.submit(std::move(first)));
  EXPECT_EQ(cold.cachedScenarios, 0u);

  JobRequest repeat;
  repeat.scenarios = ladder(wf);
  const JobOutcome warm = queue.wait(queue.submit(std::move(repeat)));
  EXPECT_EQ(warm.cachedScenarios, 4u);
  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    EXPECT_TRUE(warm.results[i].fromCache);
    EXPECT_EQ(warm.results[i].result.makespanSeconds,
              cold.results[i].result.makespanSeconds);
  }
}

TEST(JobQueue, DestructorCancelsQueuedJobs) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue queue({.workers = 1, .maxQueuedJobs = 4});
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.scenarios = ladder(wf);
    queue.submit(std::move(request));
  }
  EXPECT_EQ(queue.stats().submitted, 3u);
  // Drop the queue with work still queued: the destructor must resolve
  // everything without hanging.
}

}  // namespace
}  // namespace mcsim::runner
