// Concurrency hammer for JobQueue, run under TSan by CI's `ctest -L runner`
// sanitizer job: many submitter/waiter/canceller threads against one pool
// must lose no job, complete no job twice, and keep cancelled jobs
// deterministic (empty results, Cancelled state).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::runner {
namespace {

dag::Workflow tinyWorkflow() { return montage::buildMontageWorkflow(0.2); }

std::vector<ScenarioSpec> tinyBatch(const dag::Workflow& wf, int scenarios) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < scenarios; ++i) {
    ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = 1 + (i % 4);
    specs.push_back(spec);
  }
  return specs;
}

TEST(JobQueueRace, ManySubmittersNoLostOrDoubledJobs) {
  const dag::Workflow wf = tinyWorkflow();
  ScenarioMemoCache cache;  // shared cache maximizes cross-job contention
  JobQueue queue({.workers = 4, .maxQueuedJobs = 64, .cache = &cache});

  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 6;
  std::mutex seenMutex;
  std::set<JobId> seenIds;
  std::atomic<int> completed{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        JobRequest request;
        request.scenarios = tinyBatch(wf, 3 + ((t + j) % 3));
        const std::size_t expected = request.scenarios.size();
        const JobId id = queue.submit(std::move(request));
        {
          const std::lock_guard<std::mutex> lock(seenMutex);
          EXPECT_TRUE(seenIds.insert(id).second) << "duplicate id " << id;
        }
        const JobOutcome outcome = queue.wait(id);
        EXPECT_EQ(outcome.id, id);
        EXPECT_EQ(outcome.state, JobState::Completed);
        EXPECT_EQ(outcome.results.size(), expected);
        completed.fetch_add(1);
        // The outcome was surrendered exactly once; the id is now retired.
        EXPECT_THROW(queue.wait(id), std::invalid_argument);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load(), kThreads * kJobsPerThread);
  EXPECT_EQ(seenIds.size(),
            static_cast<std::size_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(queue.liveJobs(), 0u);
  const JobQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, seenIds.size());
  EXPECT_EQ(stats.completed, seenIds.size());
  EXPECT_EQ(stats.failed + stats.cancelled, 0u);
}

TEST(JobQueueRace, ConcurrentWaitersOneWinner) {
  const dag::Workflow wf = tinyWorkflow();
  JobQueue queue({.workers = 2});

  for (int round = 0; round < 4; ++round) {
    JobRequest request;
    request.scenarios = tinyBatch(wf, 4);
    const JobId id = queue.submit(std::move(request));

    std::atomic<int> winners{0};
    std::atomic<int> losers{0};
    std::vector<std::thread> waiters;
    for (int t = 0; t < 4; ++t) {
      waiters.emplace_back([&] {
        try {
          const JobOutcome outcome = queue.wait(id);
          EXPECT_EQ(outcome.state, JobState::Completed);
          EXPECT_EQ(outcome.results.size(), 4u);
          winners.fetch_add(1);
        } catch (const std::invalid_argument&) {
          losers.fetch_add(1);
        }
      });
    }
    for (std::thread& t : waiters) t.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(losers.load(), 3);
  }
}

TEST(JobQueueRace, CancelInFlightIsDeterministic) {
  const dag::Workflow wf = tinyWorkflow();
  JobQueue queue({.workers = 2, .maxQueuedJobs = 64});

  // Keep the pool saturated so later jobs are cancellable while queued or
  // freshly running; whatever state cancel() catches them in, the outcome
  // must be Completed-with-results or Cancelled-with-none — never between.
  constexpr int kJobs = 24;
  std::vector<JobId> ids;
  std::vector<std::size_t> sizes;
  for (int j = 0; j < kJobs; ++j) {
    JobRequest request;
    request.scenarios = tinyBatch(wf, 4);
    sizes.push_back(request.scenarios.size());
    ids.push_back(queue.submit(std::move(request)));
  }

  std::thread canceller([&] {
    for (int j = kJobs - 1; j >= 0; j -= 2) queue.cancel(ids[j]);
  });
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(kJobs);
  for (const JobId id : ids) outcomes.push_back(queue.wait(id));
  canceller.join();

  for (int j = 0; j < kJobs; ++j) {
    SCOPED_TRACE("job=" + std::to_string(j));
    if (outcomes[j].state == JobState::Completed) {
      EXPECT_EQ(outcomes[j].results.size(), sizes[j]);
      for (const ScenarioResult& r : outcomes[j].results)
        EXPECT_TRUE(r.result.completed());
    } else {
      EXPECT_EQ(outcomes[j].state, JobState::Cancelled);
      EXPECT_TRUE(outcomes[j].results.empty());
    }
  }
}

TEST(JobQueueRace, SubmitBackpressureUnderContention) {
  const dag::Workflow wf = tinyWorkflow();
  JobQueue queue({.workers = 1, .maxQueuedJobs = 2});

  constexpr int kThreads = 6;
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  std::mutex idsMutex;
  std::vector<JobId> ids;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int j = 0; j < 4; ++j) {
        JobRequest request;
        request.scenarios = tinyBatch(wf, 2);
        if (const auto id = queue.trySubmit(std::move(request))) {
          accepted.fetch_add(1);
          const std::lock_guard<std::mutex> lock(idsMutex);
          ids.push_back(*id);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accepted.load() + refused.load(), kThreads * 4);
  EXPECT_GT(accepted.load(), 0);
  for (const JobId id : ids)
    EXPECT_EQ(queue.wait(id).state, JobState::Completed);
}

}  // namespace
}  // namespace mcsim::runner
