// The batch contract every sweep relies on, checked through the one way to
// run a batch: runOnQueue(nullptr, ...) — an inline, serial, uncached queue
// — as the reference, and pooled JobQueues of several sizes.
#include "mcsim/runner/runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::runner {
namespace {

dag::Workflow smallWorkflow() { return montage::buildMontageWorkflow(0.2); }

ScenarioSpec makeSpec(const dag::Workflow& wf, int processors,
                      engine::DataMode mode = engine::DataMode::Regular) {
  ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.processors = processors;
  spec.config.mode = mode;
  spec.label = "p=" + std::to_string(processors);
  return spec;
}

std::string serialize(const std::vector<obs::Event>& events) {
  std::ostringstream os;
  for (const obs::Event& e : events) {
    obs::writeEventJson(os, e);
    os << '\n';
  }
  return os.str();
}

TEST(DefaultJobs, AtLeastOne) { EXPECT_GE(defaultJobs(), 1); }

TEST(DeriveSeed, PureAndIndexSensitive) {
  EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
  EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
  EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));
  // Never collapses to the degenerate all-zero seed for small inputs.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t s = deriveSeed(1, i);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Runner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(runOnQueue(nullptr, {}).empty());
  JobQueue pool({.workers = 2});
  EXPECT_TRUE(runOnQueue(&pool, {}).empty());
}

TEST(Runner, RejectsMalformedInput) {
  const dag::Workflow wf = smallWorkflow();

  EXPECT_THROW(JobQueue({.workers = -1}), std::invalid_argument);

  ScenarioSpec noWorkflow;
  EXPECT_THROW(runOnQueue(nullptr, {noWorkflow}), std::invalid_argument);

  obs::CollectingSink sink;
  ScenarioSpec withObserver = makeSpec(wf, 2);
  withObserver.config.observer = &sink;
  EXPECT_THROW(runOnQueue(nullptr, {withObserver}), std::invalid_argument);
  JobQueue pool({.workers = 2});
  EXPECT_THROW(runOnQueue(&pool, {withObserver}), std::invalid_argument);
}

TEST(Runner, ResultsComeBackInSpecOrder) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 4, 8, 16}) specs.push_back(makeSpec(wf, p));

  JobQueue pool({.workers = 4});
  const auto results = runOnQueue(&pool, specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, specs[i].label);
  }
  // More processors never slows the run down.
  EXPECT_GE(results[0].result.makespanSeconds,
            results[4].result.makespanSeconds);
}

TEST(Runner, ParallelResultsMatchSerial) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 3, 4, 6, 8})
    for (engine::DataMode mode :
         {engine::DataMode::RemoteIO, engine::DataMode::Regular,
          engine::DataMode::DynamicCleanup})
      specs.push_back(makeSpec(wf, p, mode));

  JobQueue parallel({.workers = 8});
  const auto a = runOnQueue(nullptr, specs);
  const auto b = runOnQueue(&parallel, specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.makespanSeconds, b[i].result.makespanSeconds) << i;
    EXPECT_EQ(a[i].result.bytesIn.value(), b[i].result.bytesIn.value()) << i;
    EXPECT_EQ(a[i].result.bytesOut.value(), b[i].result.bytesOut.value()) << i;
    EXPECT_EQ(a[i].result.storageByteSeconds, b[i].result.storageByteSeconds)
        << i;
  }
}

TEST(Runner, JobsBeyondBatchSizeClamped) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue pool({.workers = 64});  // far more workers than the two scenarios
  const auto results = runOnQueue(&pool, {makeSpec(wf, 1), makeSpec(wf, 2)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].result.makespanSeconds, 0.0);
}

TEST(Runner, BaseSeedOverridesScenarioSeeds) {
  const dag::Workflow wf = smallWorkflow();
  ScenarioSpec spec = makeSpec(wf, 4);
  spec.config.faults.processor.mtbfSeconds = 600.0;
  spec.config.faults.seed = 999;  // overwritten by baseSeed derivation

  JobQueue pool({.workers = 2});
  const auto viaQueue = runOnQueue(&pool, {spec, spec}, {.baseSeed = 42});

  // Hand-derived twin: the queue must behave as if each spec carried
  // deriveSeed(baseSeed, index) itself.
  std::vector<ScenarioSpec> explicitSeeds = {spec, spec};
  explicitSeeds[0].config.faults.seed = deriveSeed(42, 0);
  explicitSeeds[1].config.faults.seed = deriveSeed(42, 1);
  const auto viaSpecs = runOnQueue(nullptr, explicitSeeds);

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(viaQueue[i].result.makespanSeconds,
              viaSpecs[i].result.makespanSeconds)
        << i;
    EXPECT_EQ(viaQueue[i].result.processorCrashes,
              viaSpecs[i].result.processorCrashes)
        << i;
  }
  // Distinct derived seeds: the two identical specs see different faults.
  EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
}

TEST(Runner, LowestIndexErrorWinsAndCancelsBatch) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs;
  specs.push_back(makeSpec(wf, 2));
  specs.push_back(makeSpec(wf, 0));   // invalid processors -> invalid_argument
  specs.push_back(makeSpec(wf, 2));
  ScenarioSpec capped = makeSpec(wf, 2);
  capped.config.storageCapacityBytes = 1.0;  // aborts with runtime_error
  specs.push_back(capped);

  for (int workers : {0, 8}) {
    JobQueue queue({.workers = workers});
    // Index 1 fails before index 3; its exception type must surface even
    // when workers race.
    EXPECT_THROW(runOnQueue(&queue, specs), std::invalid_argument)
        << "workers=" << workers;
  }
}

TEST(Runner, ObserverSeesMergedStreamInScenarioOrder) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 4, 8}) specs.push_back(makeSpec(wf, p));

  obs::CollectingSink serialSink;
  runOnQueue(nullptr, specs, {.observer = &serialSink});

  obs::CollectingSink parallelSink;
  JobQueue parallel({.workers = 4});
  runOnQueue(&parallel, specs, {.observer = &parallelSink});

  ASSERT_GT(serialSink.size(), 0u);
  EXPECT_EQ(serialize(serialSink.events()), serialize(parallelSink.events()));
}

TEST(Runner, KeepEventsRetainsPerScenarioStreams) {
  const dag::Workflow wf = smallWorkflow();
  JobQueue pool({.workers = 2});
  const auto results = runOnQueue(&pool, {makeSpec(wf, 1), makeSpec(wf, 4)},
                                  {.keepEvents = true});
  for (const ScenarioResult& r : results) EXPECT_FALSE(r.events.empty());

  // Without the flag the streams are dropped.
  for (const ScenarioResult& r : runOnQueue(&pool, {makeSpec(wf, 1)}))
    EXPECT_TRUE(r.events.empty());
}

}  // namespace
}  // namespace mcsim::runner
