// Runner self-profiling: WorkerProfile/RunnerBatchProfile events are opt-in,
// carry no simulation clock, arrive only after the deterministic merged
// streams, and never leak into the captured per-scenario events.
#include <gtest/gtest.h>

#include <vector>

#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::runner {
namespace {

std::vector<ScenarioSpec> smallSweep(const dag::Workflow& wf) {
  std::vector<ScenarioSpec> specs;
  for (int procs : {1, 2, 4, 8}) {
    ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = procs;
    spec.label = "p" + std::to_string(procs);
    specs.push_back(spec);
  }
  return specs;
}

bool isProfileKind(obs::EventKind kind) {
  return kind == obs::EventKind::PhaseProfile ||
         kind == obs::EventKind::WorkerProfile ||
         kind == obs::EventKind::RunnerBatchProfile;
}

TEST(RunnerProfile, OffByDefault) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  obs::CollectingSink observer;
  JobQueue queue({.workers = 2});
  queue.run(smallSweep(wf), {.observer = &observer});
  for (const obs::Event& e : observer.events())
    EXPECT_FALSE(isProfileKind(obs::kind(e)));
}

TEST(RunnerProfile, EmitsWorkerAndBatchProfilesAfterTheMergedStreams) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  const auto specs = smallSweep(wf);

  obs::CollectingSink observer;
  constexpr int kWorkers = 2;
  JobQueue queue({.workers = kWorkers});
  const auto results = queue.run(
      specs, {.observer = &observer, .keepEvents = true, .profile = true});

  std::size_t workers = 0;
  std::size_t batches = 0;
  std::size_t firstProfile = observer.events().size();
  const auto& events = observer.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::EventKind k = obs::kind(events[i]);
    if (!isProfileKind(k)) {
      // Deterministic stream events must all precede the profile block.
      EXPECT_GT(firstProfile, i) << "profile event before stream event " << i;
      continue;
    }
    firstProfile = std::min(firstProfile, i);
    // Wall-clock events carry no simulation time.
    EXPECT_LT(events[i].time, 0.0);
    if (k == obs::EventKind::WorkerProfile) {
      ++workers;
      const auto& p = std::get<obs::WorkerProfile>(events[i].payload);
      EXPECT_GE(p.worker, 0);
      EXPECT_LT(p.worker, kWorkers);
      EXPECT_GE(p.busySeconds, 0.0);
      EXPECT_GE(p.wallSeconds, p.busySeconds);
    } else if (k == obs::EventKind::RunnerBatchProfile) {
      ++batches;
      const auto& p = std::get<obs::RunnerBatchProfile>(events[i].payload);
      EXPECT_EQ(p.jobs, kWorkers);
      EXPECT_EQ(p.scenarios, specs.size());
      EXPECT_GE(p.wallSeconds, 0.0);
    }
  }
  EXPECT_EQ(workers, static_cast<std::size_t>(kWorkers));
  EXPECT_EQ(batches, 1u);

  // Worker scenario counts cover the whole batch exactly once.
  std::size_t attributed = 0;
  for (const obs::Event& e : events)
    if (obs::kind(e) == obs::EventKind::WorkerProfile)
      attributed += std::get<obs::WorkerProfile>(e.payload).scenarios;
  EXPECT_EQ(attributed, specs.size());

  // Captured per-scenario streams stay deterministic: no profile events.
  ASSERT_EQ(results.size(), specs.size());
  for (const ScenarioResult& r : results)
    for (const obs::Event& e : r.events)
      EXPECT_FALSE(isProfileKind(obs::kind(e)));
}

TEST(RunnerProfile, ProfiledSweepMatchesUnprofiledResults) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.2);
  const auto specs = smallSweep(wf);

  JobQueue queue({.workers = 2});
  const auto a = queue.run(specs);
  const auto b = queue.run(specs, {.profile = true});

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_DOUBLE_EQ(a[i].result.makespanSeconds, b[i].result.makespanSeconds);
    EXPECT_DOUBLE_EQ(a[i].result.cpuBusySeconds, b[i].result.cpuBusySeconds);
  }
}

}  // namespace
}  // namespace mcsim::runner
