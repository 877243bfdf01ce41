// Scenario memo cache: fingerprint discrimination (and the workflow half's
// caching under copies and concurrent first use), byte-identical cache
// hits (results AND event streams), deterministic hit/miss accounting
// surfaced through obs, and worker-count independence with a cache
// attached.  This file backs the `perf`-labeled ctest smoke test guarding
// the memo-cache identity contract.
#include "mcsim/runner/memo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "mcsim/analysis/experiments.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::runner {
namespace {

/// Serialize an event stream to JSONL — the byte-identity yardstick.
std::string toJsonl(const std::vector<obs::Event>& events) {
  std::ostringstream os;
  for (const obs::Event& e : events) {
    obs::writeEventJson(os, e);
    os << '\n';
  }
  return os.str();
}

std::vector<ScenarioSpec> montageBatch(const dag::Workflow& wf, int copies) {
  std::vector<ScenarioSpec> specs;
  for (int c = 0; c < copies; ++c)
    for (int procs : {2, 4}) {
      ScenarioSpec spec;
      spec.workflow = &wf;
      spec.config.processors = procs;
      spec.config.mode = engine::DataMode::DynamicCleanup;
      spec.label = "p=" + std::to_string(procs);
      specs.push_back(spec);
    }
  return specs;
}

TEST(ScenarioFingerprint, DiscriminatesEveryConfigKnob) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  engine::EngineConfig base;
  const std::uint64_t key = fingerprintScenario(wf, base, false);
  EXPECT_EQ(key, fingerprintScenario(wf, base, false));  // stable

  engine::EngineConfig c = base;
  c.processors = 9;
  EXPECT_NE(fingerprintScenario(wf, c, false), key);
  c = base;
  c.mode = engine::DataMode::RemoteIO;
  EXPECT_NE(fingerprintScenario(wf, c, false), key);
  c = base;
  c.linkBandwidthBytesPerSec *= 2;
  EXPECT_NE(fingerprintScenario(wf, c, false), key);
  c = base;
  c.faults.seed = 99;
  EXPECT_NE(fingerprintScenario(wf, c, false), key);
  // The capture shape is part of the key: an event-free entry must never
  // serve a capturing caller.
  EXPECT_NE(fingerprintScenario(wf, base, true), key);
}

/// One hashed field of a small workflow to change; None is the base.
enum class Tweak {
  None,
  WorkflowName,
  NameByteInFullWord,
  NameByteInTail,
  TaskType,
  Runtime,
  Release,
  InputEdge,
  OutputEdge,
  FileSize,
  Producer,
  ExplicitOutput,
  ControlEdge,
};

/// A three-task workflow, differing from the base in exactly `tweak`.
dag::Workflow tweaked(Tweak tweak) {
  const auto is = [&](Tweak t) { return tweak == t; };
  dag::Workflow wf(is(Tweak::WorkflowName) ? "tweal" : "tweak");
  const dag::FileId in = wf.addFile("raw_0000.fits", Bytes(1000.0));
  const dag::FileId alt = wf.addFile("raw_0001.fits", Bytes(1000.0));
  const dag::FileId mid = wf.addFile(
      "proj_0000.fits", Bytes(is(Tweak::FileSize) ? 2001.0 : 2000.0));
  const dag::FileId out = wf.addFile("mosaic.fits", Bytes(500.0));
  const dag::FileId side = wf.addFile("mosaic.jpg", Bytes(50.0));

  const char* name = is(Tweak::NameByteInFullWord) ? "mProjecu_0000"
                     : is(Tweak::NameByteInTail)   ? "mProject_0001"
                                                   : "mProject_0000";
  const dag::TaskId a = wf.addTask(name, "mProject",
                                   is(Tweak::Runtime) ? 10.5 : 10.0);
  wf.addInput(a, is(Tweak::InputEdge) ? alt : in);
  wf.addOutput(a, mid);
  const dag::TaskId b = wf.addTask(
      "mAdd", is(Tweak::TaskType) ? "mAdd2" : "mAdd", 5.0);
  wf.addInput(b, mid);
  wf.addOutput(b, is(Tweak::OutputEdge) ? side : out);
  const dag::TaskId c = wf.addTask("mJPEG", "mJPEG", 1.0);
  if (!is(Tweak::OutputEdge)) wf.addOutput(is(Tweak::Producer) ? b : c, side);
  if (is(Tweak::Release)) wf.setEarliestStart(c, 2.0);
  if (is(Tweak::ExplicitOutput)) wf.markExplicitOutput(mid);
  if (is(Tweak::ControlEdge)) wf.addControlDependency(a, c);
  wf.finalize();
  return wf;
}

TEST(ScenarioFingerprint, DiscriminatesWorkflowContent) {
  const dag::Workflow small = montage::buildMontageWorkflow(0.4);
  const dag::Workflow large = montage::buildMontageWorkflow(1.0);
  EXPECT_NE(fingerprintWorkflow(small), fingerprintWorkflow(large));
  // Two independent builds of the same degree hash identically: the
  // fingerprint is content, not identity.
  const dag::Workflow again = montage::buildMontageWorkflow(0.4);
  EXPECT_EQ(fingerprintWorkflow(small), fingerprintWorkflow(again));

  // Each single-field change gives a value of its own.
  const Tweak tweaks[] = {
      Tweak::None,         Tweak::WorkflowName,   Tweak::NameByteInFullWord,
      Tweak::NameByteInTail, Tweak::TaskType,     Tweak::Runtime,
      Tweak::Release,      Tweak::InputEdge,      Tweak::OutputEdge,
      Tweak::FileSize,     Tweak::Producer,       Tweak::ExplicitOutput,
      Tweak::ControlEdge};
  std::map<std::uint64_t, int> seen;
  for (Tweak t : tweaks) {
    const auto [it, fresh] =
        seen.emplace(tweaked(t).fingerprint(), static_cast<int>(t));
    EXPECT_TRUE(fresh) << "tweak " << static_cast<int>(t)
                       << " collides with tweak " << it->second;
  }
  EXPECT_EQ(tweaked(Tweak::None).fingerprint(),
            fingerprintWorkflow(tweaked(Tweak::None)));
}

TEST(ScenarioFingerprint, NegativeZeroHashesAsZero) {
  dag::Workflow negative = tweaked(Tweak::None);
  negative.setEarliestStart(0, -0.0);
  EXPECT_EQ(negative.fingerprint(), tweaked(Tweak::None).fingerprint());
}

TEST(ScenarioFingerprint, ConcurrentFirstUseAgrees) {
  // One shared workflow, hashed for the first time by eight threads at
  // once — the serve daemon's case when jobs share a memoized workflow.
  const auto shared = std::make_shared<const dag::Workflow>(
      montage::buildMontageWorkflow(1.0));
  const std::uint64_t expected =
      montage::buildMontageWorkflow(1.0).fingerprint();
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[i] = shared->fingerprint();
    });
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(seen[i], expected) << i;
}

TEST(ScenarioMemoCacheTest, WarmRunIsByteIdenticalToCold) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 1);

  ScenarioMemoCache cache;
  JobQueue queue({.workers = 0, .cache = &cache});
  const JobOptions options{.keepEvents = true};

  const auto cold = queue.run(specs, options);
  const MemoStats coldStats = cache.stats();
  EXPECT_EQ(coldStats.hits, 0u);
  EXPECT_EQ(coldStats.misses, specs.size());
  EXPECT_EQ(coldStats.entries, specs.size());

  const auto warm = queue.run(specs, options);
  const MemoStats warmStats = cache.stats();
  EXPECT_EQ(warmStats.hits, specs.size());
  EXPECT_EQ(warmStats.misses, specs.size());  // unchanged

  // Reference: the same batch with no cache at all.
  const auto fresh = runOnQueue(nullptr, specs, options);

  ASSERT_EQ(warm.size(), fresh.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_FALSE(cold[i].fromCache);
    EXPECT_TRUE(warm[i].fromCache);
    EXPECT_EQ(warm[i].label, fresh[i].label);
    EXPECT_EQ(warm[i].result.makespanSeconds, fresh[i].result.makespanSeconds);
    EXPECT_EQ(warm[i].result.storageByteSeconds,
              fresh[i].result.storageByteSeconds);
    EXPECT_EQ(warm[i].result.cpuBusySeconds, fresh[i].result.cpuBusySeconds);
    // Byte-identical event streams — the memo contract.
    EXPECT_EQ(toJsonl(warm[i].events), toJsonl(fresh[i].events)) << i;
  }
}

TEST(ScenarioMemoCacheTest, InBatchDuplicatesAreServedOnce) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 3);  // each point repeated 3x

  ScenarioMemoCache cache;
  JobQueue queue({.workers = 0, .cache = &cache});
  const auto results = queue.run(specs, {.keepEvents = true});

  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);               // two distinct points
  EXPECT_EQ(stats.hits, specs.size() - 2u);  // everything else deduplicated
  EXPECT_EQ(stats.entries, 2u);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t rep = i % 2;  // batch alternates p=2, p=4
    EXPECT_EQ(results[i].fromCache, i >= 2);
    EXPECT_EQ(toJsonl(results[i].events), toJsonl(results[rep].events)) << i;
  }
}

TEST(ScenarioMemoCacheTest, StatsAreEmittedThroughObs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 2);

  ScenarioMemoCache cache;
  obs::CollectingSink sink;
  JobQueue queue({.workers = 0, .cache = &cache});
  queue.run(specs, {.observer = &sink});

  const auto events = sink.take();
  ASSERT_FALSE(events.empty());
  // The cache-stats event is appended after every merged scenario stream.
  const auto* stats =
      std::get_if<obs::ScenarioCacheStats>(&events.back().payload);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->misses, 2u);
  EXPECT_EQ(stats->hits, 2u);
  EXPECT_EQ(stats->entries, 2u);
}

TEST(ScenarioMemoCacheTest, MergedStreamMatchesCachelessRunExactly) {
  // With the stats event stripped, a cached run's merged observer stream
  // must be byte-identical to the cache-less serial stream.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 2);

  auto capture = [&](ScenarioMemoCache* cache, int workers) {
    obs::CollectingSink sink;
    JobQueue queue({.workers = workers, .cache = cache});
    queue.run(specs, {.observer = &sink});
    auto events = sink.take();
    if (cache != nullptr) {
      EXPECT_TRUE(std::holds_alternative<obs::ScenarioCacheStats>(
          events.back().payload));
      events.pop_back();
    }
    return toJsonl(events);
  };

  const std::string plain = capture(nullptr, 0);
  ScenarioMemoCache cacheSerial;
  EXPECT_EQ(capture(&cacheSerial, 0), plain);
  ScenarioMemoCache cacheParallel;
  EXPECT_EQ(capture(&cacheParallel, 4), plain);
  // Warm re-run over a populated cache: still the same bytes.
  EXPECT_EQ(capture(&cacheParallel, 4), plain);
}

TEST(ScenarioMemoCacheTest, BaseSeedKeepsFaultScenariosDistinct) {
  // With faults on and a base seed, every index gets its own derived seed,
  // so superficially identical specs must NOT collapse into one entry.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  std::vector<ScenarioSpec> specs(3);
  for (auto& spec : specs) {
    spec.workflow = &wf;
    spec.config.processors = 4;
    spec.config.faults.processor.mtbfSeconds = 300.0;
    spec.config.faults.retry.maxRetries = 5;
  }

  ScenarioMemoCache cache;
  JobQueue queue({.workers = 0, .cache = &cache});
  queue.run(specs, {.baseSeed = 1234});

  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ScenarioMemoCacheTest, CcrSweepThroughACachedPoolMatchesSerial) {
  // ccrSweep copies the workflow and rescales each copy.  With the parent's
  // fingerprint already computed, every copy starts out carrying it; a
  // rescale that failed to clear it would key every point like the first
  // and serve them all from its entries.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  wf.fingerprint();
  const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  analysis::CcrSweepConfig config;
  config.ccrTargets = {0.1, 0.5, 1.0, 2.0};
  const auto serial = analysis::ccrSweep(wf, pricing, config);

  ScenarioMemoCache cache;
  JobQueue pool({.workers = 4, .cache = &cache});
  config.queue = &pool;
  const auto pooled = analysis::ccrSweep(wf, pricing, config);
  EXPECT_EQ(cache.stats().entries, 2 * config.ccrTargets.size());
  EXPECT_EQ(cache.stats().hits, 0u);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].makespanSeconds, pooled[i].makespanSeconds) << i;
    EXPECT_EQ(serial[i].storageCost.value(), pooled[i].storageCost.value())
        << i;
    EXPECT_EQ(serial[i].storageCleanupCost.value(),
              pooled[i].storageCleanupCost.value())
        << i;
    EXPECT_EQ(serial[i].transferCost.value(), pooled[i].transferCost.value())
        << i;
    EXPECT_EQ(serial[i].totalCost.value(), pooled[i].totalCost.value()) << i;
  }
}

TEST(ScenarioMemoCacheTest, ClearResetsEverything) {
  ScenarioMemoCache cache;
  cache.insert(1, {});
  cache.lookup(1);
  cache.lookup(2);
  cache.clear();
  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_FALSE(cache.contains(1));
}

}  // namespace
}  // namespace mcsim::runner
