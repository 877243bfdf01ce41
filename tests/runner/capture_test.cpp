// Capture follows the job observer's accepts(): a JobQueue job records,
// memoizes and replays only the scenario kinds its observer accepts (every
// kind under keepEvents, nothing when it accepts none), and the memo key
// carries that kind set, so a cache entry only serves a job that wants
// exactly its kinds.
#include "mcsim/runner/jobs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/report.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::runner {
namespace {

/// Records every event it is handed, and accepts only `kinds`.
class NarrowRecorder final : public obs::Sink {
 public:
  explicit NarrowRecorder(obs::EventKindSet kinds) : kinds_(kinds) {}
  void onEvent(const obs::Event& event) override { events.push_back(event); }
  bool accepts(obs::EventKind kind) const override {
    return kinds_.contains(kind);
  }

  std::vector<obs::Event> events;

 private:
  obs::EventKindSet kinds_;
};

/// What `mcsim explain` observes: span folding plus billing line items.
obs::EventKindSet explainKinds() {
  obs::TraceStore store;
  obs::SpanSink spans(store);
  obs::ReportBuilder lineItems;
  return obs::acceptedKinds(obs::FanOutSink({&spans, &lineItems}));
}

/// JSONL of the events of `kinds` — the byte-identity yardstick.
std::string toJsonl(const std::vector<obs::Event>& events,
                    obs::EventKindSet kinds) {
  std::ostringstream os;
  for (const obs::Event& e : events) {
    if (!kinds.contains(obs::kind(e))) continue;
    obs::writeEventJson(os, e);
    os << '\n';
  }
  return os.str();
}

/// True when every event is of one of `kinds`.
bool allOf(const std::vector<obs::Event>& events, obs::EventKindSet kinds) {
  for (const obs::Event& e : events)
    if (!kinds.contains(obs::kind(e))) return false;
  return true;
}

/// A faulted cleanup ladder, so crash, retry and outage kinds occur.
std::vector<ScenarioSpec> faultedLadder(const dag::Workflow& wf) {
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 4, 8}) {
    ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = p;
    spec.config.mode = engine::DataMode::DynamicCleanup;
    spec.config.faults.processor.mtbfSeconds = 300.0;
    spec.config.faults.retry.maxRetries = 8;
    spec.config.faults.retry.delaySeconds = 5.0;
    spec.config.faults.storage.outages = {{200.0, 60.0}};
    spec.config.faults.link.outages = {{500.0, 30.0}};
    spec.label = "p=" + std::to_string(p);
    specs.push_back(spec);
  }
  return specs;
}

/// Every scenario's full stream (keepEvents on an uncached inline queue),
/// concatenated in spec order and restricted to `kinds`.
std::string fullStream(const std::vector<ScenarioSpec>& specs,
                       obs::EventKindSet kinds) {
  std::string out;
  for (const ScenarioResult& r :
       runOnQueue(nullptr, specs, {.keepEvents = true}))
    out += toJsonl(r.events, kinds);
  return out;
}

/// The results' simulated values, for repeat-identity checks.
std::string resultText(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  os.precision(17);
  for (const ScenarioResult& r : results)
    os << r.index << ' ' << r.label << ' ' << r.result.makespanSeconds << ' '
       << r.result.cpuBusySeconds << ' ' << r.result.storageByteSeconds << ' '
       << r.result.bytesIn.value() << ' ' << r.result.bytesOut.value() << ' '
       << r.result.tasksExecuted << ' ' << r.result.taskRetries << '\n';
  return os.str();
}

JobOutcome runJob(JobQueue& queue, const std::vector<ScenarioSpec>& specs,
                  const JobOptions& options) {
  JobRequest request;
  request.scenarios = specs;
  request.options = options;
  JobOutcome outcome = queue.wait(queue.submit(std::move(request)));
  EXPECT_EQ(outcome.state, JobState::Completed) << outcome.error;
  return outcome;
}

/// The recorder's stream with the job's trailing scenario_cache_stats event
/// (delivered whatever the observer accepts) checked and removed.
std::vector<obs::Event> withoutCacheStats(std::vector<obs::Event> events) {
  EXPECT_FALSE(events.empty());
  if (events.empty()) return events;
  EXPECT_EQ(obs::kind(events.back()), obs::EventKind::ScenarioCacheStats);
  events.pop_back();
  return events;
}

TEST(JobCapture, ScenarioKindsExcludeControlPlaneKinds) {
  EXPECT_TRUE(obs::kScenarioKinds.contains(obs::EventKind::SimEventScheduled));
  EXPECT_TRUE(obs::kScenarioKinds.contains(obs::EventKind::BillingLineItem));
  EXPECT_TRUE(obs::kScenarioKinds.contains(obs::EventKind::DeadlineExceeded));
  EXPECT_FALSE(obs::kScenarioKinds.contains(obs::EventKind::LogEmitted));
  EXPECT_FALSE(
      obs::kScenarioKinds.contains(obs::EventKind::ScenarioCacheStats));
  EXPECT_FALSE(obs::kScenarioKinds.contains(obs::EventKind::PhaseProfile));
  EXPECT_FALSE(obs::kScenarioKinds.contains(obs::EventKind::JobFinished));
}

TEST(JobCapture, NarrowObserverGetsTheFullStreamFilteredToItsKinds) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  std::vector<ScenarioSpec> specs = faultedLadder(wf);
  specs.push_back(specs[1]);  // an in-job duplicate, served from a pin
  const obs::EventKindSet kinds = explainKinds();
  const std::string expected = fullStream(specs, kinds);
  ASSERT_NE(expected.find("task_retry_scheduled"), std::string::npos);
  ASSERT_NE(expected.find("billing_line_item"), std::string::npos);

  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    {
      JobQueue uncached({.workers = workers});
      NarrowRecorder observer(kinds);
      runJob(uncached, specs, {.observer = &observer});
      EXPECT_TRUE(allOf(observer.events, kinds));
      EXPECT_EQ(toJsonl(observer.events, kinds), expected);
    }
    ScenarioMemoCache cache;
    JobQueue queue({.workers = workers, .cache = &cache});
    for (const char* pass : {"cold", "cached"}) {
      SCOPED_TRACE(pass);
      NarrowRecorder observer(kinds);
      const JobOutcome outcome = runJob(queue, specs, {.observer = &observer});
      EXPECT_EQ(outcome.cachedScenarios,
                std::string(pass) == "cold" ? 1u : specs.size());
      const std::vector<obs::Event> merged =
          withoutCacheStats(observer.events);
      // Nothing outside the observer's kinds reaches it...
      EXPECT_TRUE(allOf(merged, kinds));
      // ...and nothing inside them is lost.
      EXPECT_EQ(toJsonl(merged, kinds), expected);
      for (const ScenarioResult& r : outcome.results)
        EXPECT_TRUE(r.events.empty());
    }
  }
}

TEST(JobCapture, MemoKeySeparatesCaptureSets) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const std::vector<ScenarioSpec> specs = faultedLadder(wf);
  const obs::EventKindSet narrow = explainKinds();
  const std::string full = fullStream(specs, obs::kScenarioKinds);

  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ScenarioMemoCache cache;
    JobQueue queue({.workers = workers, .cache = &cache});

    // 1. No observer: results only; the entries hold no events.
    const JobOutcome plain = runJob(queue, specs, {});
    EXPECT_EQ(plain.cachedScenarios, 0u);
    const std::size_t plainBytes = cache.stats().bytes;

    // 2. A narrow observer cannot be served by event-free entries.
    NarrowRecorder observer(narrow);
    const JobOutcome narrowed = runJob(queue, specs, {.observer = &observer});
    EXPECT_EQ(narrowed.cachedScenarios, 0u);
    const std::string narrowStream =
        toJsonl(withoutCacheStats(observer.events), obs::kScenarioKinds);
    EXPECT_EQ(narrowStream, fullStream(specs, narrow));

    // 3. keepEvents cannot be served by narrow entries either.
    const JobOutcome kept = runJob(queue, specs, {.keepEvents = true});
    EXPECT_EQ(kept.cachedScenarios, 0u);
    std::string keptStream;
    for (const ScenarioResult& r : kept.results)
      keptStream += toJsonl(r.events, obs::kScenarioKinds);
    EXPECT_EQ(keptStream, full);
    EXPECT_EQ(cache.stats().entries, 3 * specs.size());
    EXPECT_GT(cache.stats().bytes, 3 * plainBytes);

    // Each repeat is fully cached and byte-identical.
    const JobOutcome plainAgain = runJob(queue, specs, {});
    EXPECT_EQ(plainAgain.cachedScenarios, specs.size());
    EXPECT_EQ(resultText(plainAgain.results), resultText(plain.results));

    NarrowRecorder again(narrow);
    const JobOutcome narrowedAgain = runJob(queue, specs, {.observer = &again});
    EXPECT_EQ(narrowedAgain.cachedScenarios, specs.size());
    EXPECT_EQ(resultText(narrowedAgain.results), resultText(plain.results));
    EXPECT_EQ(toJsonl(withoutCacheStats(again.events), obs::kScenarioKinds),
              narrowStream);

    const JobOutcome keptAgain = runJob(queue, specs, {.keepEvents = true});
    EXPECT_EQ(keptAgain.cachedScenarios, specs.size());
    EXPECT_EQ(resultText(keptAgain.results), resultText(plain.results));
    std::string keptAgainStream;
    for (const ScenarioResult& r : keptAgain.results)
      keptAgainStream += toJsonl(r.events, obs::kScenarioKinds);
    EXPECT_EQ(keptAgainStream, full);
  }
}

TEST(JobCapture, KeepEventsRecordsEverythingButReplaysOnlyAcceptedKinds) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const std::vector<ScenarioSpec> specs = faultedLadder(wf);
  const obs::EventKindSet narrow = explainKinds();
  NarrowRecorder observer(narrow);
  const auto results =
      runOnQueue(nullptr, specs, {.observer = &observer, .keepEvents = true});
  std::string kept;
  for (const ScenarioResult& r : results)
    kept += toJsonl(r.events, obs::kScenarioKinds);
  EXPECT_EQ(kept, fullStream(specs, obs::kScenarioKinds));
  EXPECT_EQ(toJsonl(observer.events, obs::kScenarioKinds),
            fullStream(specs, narrow));
}

TEST(JobCapture, ObserverAcceptingNoScenarioKindCapturesNothing) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const std::vector<ScenarioSpec> specs = faultedLadder(wf);
  ScenarioMemoCache plainCache;
  JobQueue plainQueue({.workers = 0, .cache = &plainCache});
  plainQueue.run(specs);

  // Only the job's own cache-stats event is wanted: the entries are the
  // observer-less ones, byte for byte.
  ScenarioMemoCache cache;
  JobQueue queue({.workers = 0, .cache = &cache});
  NarrowRecorder statsOnly(
      obs::EventKindSet{}.with(obs::EventKind::ScenarioCacheStats));
  const JobOutcome first = runJob(queue, specs, {.observer = &statsOnly});
  EXPECT_EQ(first.cachedScenarios, 0u);
  EXPECT_EQ(cache.stats().bytes, plainCache.stats().bytes);
  ASSERT_EQ(statsOnly.events.size(), 1u);
  EXPECT_EQ(obs::kind(statsOnly.events[0]),
            obs::EventKind::ScenarioCacheStats);
  // An observer-less job shares those entries.
  EXPECT_EQ(runJob(queue, specs, {}).cachedScenarios, specs.size());
}

TEST(JobCapture, FingerprintCarriesTheCapturedKindSet) {
  const engine::EngineConfig cfg;
  const obs::EventKindSet narrow = explainKinds();
  EXPECT_EQ(fingerprintConfig(cfg, false),
            fingerprintConfig(cfg, obs::EventKindSet{}));
  EXPECT_EQ(fingerprintConfig(cfg, true),
            fingerprintConfig(cfg, obs::kScenarioKinds));
  EXPECT_NE(fingerprintConfig(cfg, narrow), fingerprintConfig(cfg, false));
  EXPECT_NE(fingerprintConfig(cfg, narrow), fingerprintConfig(cfg, true));
}

}  // namespace
}  // namespace mcsim::runner
