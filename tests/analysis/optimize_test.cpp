// The placement optimizer: Q2a anchors, agreement with dataModeComparison,
// and the search-space invariants (spot, archive hosting, Pareto frontier).
#include "mcsim/analysis/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "mcsim/analysis/experiments.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::analysis {
namespace {

const cloud::ProviderCatalog& kCatalog = cloud::ProviderCatalog::builtin();

/// Candidates restricted to the legacy placement (defaults everywhere) for
/// one provider: best candidate per mode must agree with the sweep.
std::map<engine::DataMode, PlacementCandidate> bestPerMode(
    const OptimizeResult& result, const std::string& provider) {
  std::map<engine::DataMode, PlacementCandidate> best;
  for (const PlacementCandidate& c : result.ranked) {
    if (c.assignment.computeProvider != provider) continue;
    if (!best.count(c.mode)) best.emplace(c.mode, c);
  }
  return best;
}

// §6 Q2a anchor, amazon-2008: the optimizer reproduces the paper's original
// data-mode ordering — remote I/O costs the most, dynamic cleanup the least.
TEST(OptimizePlacement, Q2aAmazon2008PaperOrdering) {
  const auto wf = montage::buildMontageWorkflow(4.0);
  OptimizeConfig config;
  config.providers = {"amazon-2008"};
  // Fixed provisioning (the default ladder's top rung): at the 4-degree
  // mosaic's full parallelism the intermediates barely rest in storage and
  // the storage term degenerates.
  config.processorOverride = 128;
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  ASSERT_EQ(result.candidates, 3u);  // 1 SKU x 1 class x 3 modes.
  EXPECT_EQ(result.simulations, 3u);

  const auto best = bestPerMode(result, "amazon-2008");
  const Money remote = best.at(engine::DataMode::RemoteIO).cost.total();
  const Money regular = best.at(engine::DataMode::Regular).cost.total();
  const Money cleanup = best.at(engine::DataMode::DynamicCleanup).cost.total();
  EXPECT_GT(remote, regular);
  EXPECT_LE(cleanup, regular);
  // The global winner is therefore the cleanup candidate.
  EXPECT_EQ(result.best().mode, engine::DataMode::DynamicCleanup);
  EXPECT_EQ(result.best().assignment.computeProvider, "amazon-2008");
}

// §6 Q2a anchor, storage-heavy what-if: "if the storage costs were higher,
// the remote I/O case would have provided the most cost-effective option."
TEST(OptimizePlacement, Q2aStorageHeavyFlipsToRemoteIO) {
  const auto wf = montage::buildMontageWorkflow(4.0);
  OptimizeConfig config;
  config.providers = {"storage-heavy"};
  config.processorOverride = 128;  // Same provisioning as the amazon anchor.
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  const auto best = bestPerMode(result, "storage-heavy");
  const Money remote = best.at(engine::DataMode::RemoteIO).cost.total();
  const Money regular = best.at(engine::DataMode::Regular).cost.total();
  const Money cleanup = best.at(engine::DataMode::DynamicCleanup).cost.total();
  EXPECT_LT(remote, regular);
  EXPECT_LT(remote, cleanup);
  EXPECT_EQ(result.best().mode, engine::DataMode::RemoteIO);
}

// With the default placement (inputs/outputs at the user site, intermediates
// co-located on the default class) the optimizer's per-mode totals must
// agree with dataModeComparison — same simulations, same fee arithmetic.
TEST(OptimizePlacement, AgreesWithDataModeComparison) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  for (const char* provider :
       {"amazon-2008", "storage-heavy", "compute-discount"}) {
    SCOPED_TRACE(provider);
    OptimizeConfig config;
    config.providers = {provider};
    const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
    const auto rows = dataModeComparison(wf, kCatalog.pricing(provider),
                                         DataModeComparisonConfig{});
    const auto best = bestPerMode(result, provider);
    for (const DataModeMetrics& row : rows) {
      SCOPED_TRACE(engine::dataModeName(row.mode));
      const PlacementCandidate& c = best.at(row.mode);
      EXPECT_NEAR(c.cost.total().value(), row.totalCost().value(), 1e-9);
      EXPECT_NEAR(c.cost.cpu.value(), row.cpuCost.value(), 1e-12);
      EXPECT_NEAR(c.cost.storage.value(), row.storageCost.value(), 1e-12);
      EXPECT_NEAR(c.cost.transfer.value(),
                  (row.transferInCost + row.transferOutCost).value(), 1e-12);
      EXPECT_DOUBLE_EQ(c.makespanSeconds, row.makespanSeconds);
    }
  }
}

TEST(OptimizePlacement, DeterministicAcrossJobsValues) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig serial;
  serial.useSpot = true;
  serial.sweepArchiveHosting = true;
  const OptimizeResult a = optimizePlacement(wf, kCatalog, serial);
  runner::JobQueue pool({.workers = 4});
  OptimizeConfig threaded = serial;
  threaded.queue = &pool;
  const OptimizeResult b = optimizePlacement(wf, kCatalog, threaded);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].cost.total().value(),
              b.ranked[i].cost.total().value());
    EXPECT_EQ(a.ranked[i].makespanSeconds, b.ranked[i].makespanSeconds);
    EXPECT_EQ(a.ranked[i].assignment.computeProvider,
              b.ranked[i].assignment.computeProvider);
    EXPECT_EQ(a.ranked[i].assignment.instanceType,
              b.ranked[i].assignment.instanceType);
    EXPECT_EQ(a.ranked[i].onFrontier, b.ranked[i].onFrontier);
  }
}

TEST(OptimizePlacement, RankedCheapestFirstAndFrontierConsistent) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.useSpot = true;
  config.sweepArchiveHosting = true;
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  ASSERT_GT(result.candidates, 10u);
  EXPECT_EQ(result.candidates, result.ranked.size());
  EXPECT_TRUE(result.ranked.front().onFrontier);  // Cheapest always wins.
  for (std::size_t i = 1; i < result.ranked.size(); ++i)
    EXPECT_LE(result.ranked[i - 1].cost.total(), result.ranked[i].cost.total());
  // Frontier = no candidate is both cheaper and faster (cheapest-first scan).
  double bestMakespan = std::numeric_limits<double>::infinity();
  for (const PlacementCandidate& c : result.ranked) {
    EXPECT_EQ(c.onFrontier, c.makespanSeconds < bestMakespan);
    bestMakespan = std::min(bestMakespan, c.makespanSeconds);
  }
}

TEST(OptimizePlacement, FasterSkuCutsMakespanAndSimulationsAreDeduped) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2010"};
  config.modes = {engine::DataMode::Regular};
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  // 3 SKUs x 3 storage classes x 1 mode; one simulation per distinct speed.
  EXPECT_EQ(result.candidates, 9u);
  EXPECT_EQ(result.simulations, 3u);
  std::map<std::string, double> makespanBySku;
  for (const PlacementCandidate& c : result.ranked)
    makespanBySku[c.assignment.instanceType] = c.makespanSeconds;
  EXPECT_LT(makespanBySku.at("c1.medium"), makespanBySku.at("m1.small"));
  EXPECT_LT(makespanBySku.at("m2.xlarge"), makespanBySku.at("c1.medium"));
}

TEST(OptimizePlacement, SpotCandidatesCheaperCpuButCarryInterruptions) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2010"};
  config.modes = {engine::DataMode::Regular};
  config.useSpot = true;
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  EXPECT_EQ(result.candidates, 18u);  // On-demand + spot per combination.
  bool sawSpot = false;
  for (const PlacementCandidate& c : result.ranked) {
    if (!c.assignment.spot) continue;
    sawSpot = true;
    EXPECT_GT(c.expectedInterruptions, 0.0);
    EXPECT_GT(c.cost.spotRework.value(), 0.0);
    // Find the on-demand twin: same SKU, mode, placement.
    const auto twin = std::find_if(
        result.ranked.begin(), result.ranked.end(),
        [&](const PlacementCandidate& o) {
          return !o.assignment.spot &&
                 o.assignment.instanceType == c.assignment.instanceType &&
                 o.assignment.intermediates.storageClass ==
                     c.assignment.intermediates.storageClass &&
                 o.mode == c.mode;
        });
    ASSERT_NE(twin, result.ranked.end());
    EXPECT_LT(c.cost.cpu, twin->cost.cpu);
  }
  EXPECT_TRUE(sawSpot);
}

TEST(OptimizePlacement, ArchiveHostingPaysRetrievalAndAmortizedHolding) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2010"};
  config.modes = {engine::DataMode::Regular};
  config.sweepArchiveHosting = true;
  config.requestsPerMonth = 100.0;
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  bool sawGlacier = false;
  for (const PlacementCandidate& c : result.ranked) {
    if (c.assignment.inputs.isUserSite()) {
      EXPECT_EQ(c.cost.retrieval.value(), 0.0);
      EXPECT_EQ(c.cost.archiveShare.value(), 0.0);
      continue;
    }
    // Hosted inputs always pay the amortized holding bill...
    EXPECT_GT(c.cost.archiveShare.value(), 0.0);
    // ...and the glacier-style tier also pays retrieval on every read.
    if (c.assignment.inputs.storageClass == "glacier") {
      sawGlacier = true;
      EXPECT_GT(c.cost.retrieval.value(), 0.0);
    }
  }
  EXPECT_TRUE(sawGlacier);
}

TEST(OptimizePlacement, CrossProviderScratchPaysBothBoundaries) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2008", "compute-discount"};
  config.modes = {engine::DataMode::Regular};
  config.sweepCrossProviderScratch = true;
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  bool sawRemoteScratch = false;
  for (const PlacementCandidate& c : result.ranked) {
    const bool remote = c.assignment.intermediates.provider !=
                        c.assignment.computeProvider;
    if (remote) sawRemoteScratch = true;
    EXPECT_EQ(c.cost.scratchTransfer.value() > 0.0, remote);
  }
  EXPECT_TRUE(sawRemoteScratch);
}

TEST(OptimizePlacement, SkuGranularityNeverCheaper) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig ideal;
  ideal.providers = {"amazon-2010"};
  ideal.modes = {engine::DataMode::Regular};
  OptimizeConfig hourly = ideal;
  hourly.skuGranularity = true;  // amazon-2010 SKUs bill per-hour.
  const OptimizeResult a = optimizePlacement(wf, kCatalog, ideal);
  const OptimizeResult b = optimizePlacement(wf, kCatalog, hourly);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  // Compare cheapest totals; rounding up to whole hours can only add cost.
  EXPECT_GE(b.best().cost.total(), a.best().cost.total());
}

TEST(OptimizePlacement, MemoCacheServesRepeatRuns) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  runner::ScenarioMemoCache cache;
  runner::JobQueue queue({.workers = 0, .cache = &cache});
  OptimizeConfig config;
  config.providers = {"amazon-2008"};
  config.queue = &queue;
  const OptimizeResult first = optimizePlacement(wf, kCatalog, config);
  const auto missesAfterFirst = cache.stats().misses;
  EXPECT_GT(missesAfterFirst, 0u);
  const OptimizeResult second = optimizePlacement(wf, kCatalog, config);
  EXPECT_EQ(cache.stats().misses, missesAfterFirst);  // All hits.
  ASSERT_EQ(first.ranked.size(), second.ranked.size());
  for (std::size_t i = 0; i < first.ranked.size(); ++i)
    EXPECT_EQ(first.ranked[i].cost.total().value(),
              second.ranked[i].cost.total().value());
}

TEST(OptimizePlacement, RejectsBadConfig) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig unknown;
  unknown.providers = {"nimbus"};
  EXPECT_THROW(optimizePlacement(wf, kCatalog, unknown), std::out_of_range);
  OptimizeConfig noModes;
  noModes.modes = {};
  EXPECT_THROW(optimizePlacement(wf, kCatalog, noModes),
               std::invalid_argument);
  cloud::ProviderCatalog empty;
  EXPECT_THROW(optimizePlacement(wf, empty, OptimizeConfig{}),
               std::invalid_argument);
}

TEST(OptimizeTable, TopRowsPlusFrontier) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2008", "amazon-2010"};
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  const Table t = optimizeTable(result, 5);
  EXPECT_EQ(t.columnCount(), 11u);
  EXPECT_GE(t.rowCount(), 5u);
  EXPECT_LE(t.rowCount(), result.ranked.size());
}

TEST(DescribeCandidate, MentionsEveryAxis) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  OptimizeConfig config;
  config.providers = {"amazon-2008"};
  const OptimizeResult result = optimizePlacement(wf, kCatalog, config);
  const std::string text = describeCandidate(result.best());
  EXPECT_NE(text.find("amazon-2008"), std::string::npos) << text;
  EXPECT_NE(text.find("m1.small"), std::string::npos) << text;
  EXPECT_NE(text.find("user"), std::string::npos) << text;
  EXPECT_NE(text.find("$"), std::string::npos) << text;
}

// The migration differential: every legacy sweep fed the catalog-derived
// Pricing must be byte-identical to the same sweep fed the historical
// static, for any worker count.
TEST(CatalogMigration, SweepsByteIdenticalStaticVsCatalog) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const cloud::Pricing fromStatic = cloud::Pricing::amazon2008();
  const cloud::Pricing fromCatalog = kCatalog.pricing("amazon-2008");

  for (int workers : {0, 3}) {
    SCOPED_TRACE(workers);
    runner::JobQueue queue({.workers = workers});
    ProvisioningSweepConfig pcfg;
    pcfg.processorCounts = {1, 4, 16};
    pcfg.queue = &queue;
    const auto pa = provisioningSweep(wf, fromStatic, pcfg);
    const auto pb = provisioningSweep(wf, fromCatalog, pcfg);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].totalCost.value(), pb[i].totalCost.value());
      EXPECT_EQ(pa[i].makespanSeconds, pb[i].makespanSeconds);
    }

    DataModeComparisonConfig dcfg;
    dcfg.queue = &queue;
    const auto da = dataModeComparison(wf, fromStatic, dcfg);
    const auto db = dataModeComparison(wf, fromCatalog, dcfg);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].totalCost().value(), db[i].totalCost().value());
      EXPECT_EQ(da[i].storageCost.value(), db[i].storageCost.value());
    }

    CcrSweepConfig ccfg;
    ccfg.ccrTargets = {0.053, 1.0};
    ccfg.queue = &queue;
    const auto ca = ccrSweep(wf, fromStatic, ccfg);
    const auto cb = ccrSweep(wf, fromCatalog, ccfg);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i)
      EXPECT_EQ(ca[i].totalCost.value(), cb[i].totalCost.value());
  }
}

}  // namespace
}  // namespace mcsim::analysis
