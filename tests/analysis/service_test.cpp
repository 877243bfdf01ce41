#include "mcsim/analysis/service.hpp"

#include <gtest/gtest.h>

#include "mcsim/analysis/experiments.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::analysis {
namespace {

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

RequestProfile cheapProfile() {
  RequestProfile p;
  p.name = "unit";
  p.costOnDemand = Money(2.22);
  p.costPreStaged = Money(2.12);
  p.costServeStored = Money(0.09);
  p.productBytes = Bytes::fromMB(557.9);
  return p;
}

TEST(Service, DeterministicForFixedSeed) {
  const auto a = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon);
  const auto b = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon);
  EXPECT_EQ(a.requestCount, b.requestCount);
  EXPECT_EQ(a.cacheHits, b.cacheHits);
  EXPECT_DOUBLE_EQ(a.archivePlusCache.total.value(),
                   b.archivePlusCache.total.value());
}

TEST(Service, RequestVolumeTracksRate) {
  ServiceWorkloadParams params;
  params.requestsPerDay = 100.0;
  const auto r = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon, params);
  // Poisson with mean 3,000 over the month.
  EXPECT_GT(r.requestCount, 2500u);
  EXPECT_LT(r.requestCount, 3500u);
}

TEST(Service, ArchiveFeeMatchesPaper) {
  const auto r =
      simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0), kAmazon);
  EXPECT_NEAR(r.archiveMonthlyCost.value(), 1800.0, 1e-9);
}

TEST(Service, LowVolumeFavoursRecompute) {
  // Far below the ~18k/month break-even: hosting the archive cannot pay.
  ServiceWorkloadParams params;
  params.requestsPerDay = 10.0;
  const auto r = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon, params);
  EXPECT_LT(r.recompute.total, r.archiveInCloud.total);
  EXPECT_EQ(&r.best(), &r.recompute);
}

TEST(Service, HighVolumeFavoursArchive) {
  // Far above break-even (requests/month ~30,000 > 18,000).
  ServiceWorkloadParams params;
  params.requestsPerDay = 1000.0;
  const auto r = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon, params);
  EXPECT_LT(r.archiveInCloud.total, r.recompute.total);
}

TEST(Service, CachingBeatsPlainArchiveWhenRequestsRepeat) {
  ServiceWorkloadParams params;
  params.requestsPerDay = 200.0;
  params.popularFraction = 0.9;
  params.popularRegionCount = 10;  // heavy repetition
  const auto r = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon, params);
  EXPECT_GT(r.cacheHits, r.requestCount / 2);
  EXPECT_LT(r.archivePlusCache.total, r.archiveInCloud.total);
}

TEST(Service, NoRepetitionMeansNoCacheHits) {
  ServiceWorkloadParams params;
  params.popularFraction = 0.0;
  const auto r = simulateServiceMonth({cheapProfile()}, Bytes::fromTB(12.0),
                                      kAmazon, params);
  EXPECT_EQ(r.cacheHits, 0u);
  // Cache policy degenerates to the plain archive policy (no product
  // storage accrues either).
  EXPECT_NEAR(r.archivePlusCache.total.value(), r.archiveInCloud.total.value(),
              1e-9);
}

TEST(Service, ProfileWeightsRespected) {
  RequestProfile expensive = cheapProfile();
  expensive.name = "expensive";
  expensive.costOnDemand = Money(100.0);
  expensive.weight = 0.0;  // never drawn
  const auto r = simulateServiceMonth({cheapProfile(), expensive},
                                      Bytes::fromTB(12.0), kAmazon);
  // All requests drawn from the cheap profile.
  EXPECT_NEAR(r.recompute.total.value(), 2.22 * r.requestCount, 1e-6);
}

TEST(Service, PerRequestHelper) {
  PolicyCost c;
  c.total = Money(100.0);
  EXPECT_DOUBLE_EQ(c.perRequest(50).value(), 2.0);
  EXPECT_DOUBLE_EQ(c.perRequest(0).value(), 0.0);
}

TEST(Service, ProfileFromWorkflowMatchesModeComparison) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const RequestProfile p =
      profileFromWorkflow(wf, Bytes::fromMB(173.46), kAmazon);
  EXPECT_EQ(p.name, "montage-1deg");
  const auto rows = dataModeComparison(wf, kAmazon, DataModeComparisonConfig{});
  EXPECT_NEAR(p.costOnDemand.value(), rows[1].totalCost().value(), 1e-9);
  EXPECT_LT(p.costPreStaged, p.costOnDemand);
  EXPECT_NEAR(p.costServeStored.value(), 0.17346 * 0.16, 1e-6);
}

TEST(Service, InvalidInputsRejected) {
  EXPECT_THROW(simulateServiceMonth({}, Bytes::fromTB(1.0), kAmazon),
               std::invalid_argument);
  ServiceWorkloadParams bad;
  bad.requestsPerDay = 0.0;
  EXPECT_THROW(
      simulateServiceMonth({cheapProfile()}, Bytes::fromTB(1.0), kAmazon, bad),
      std::invalid_argument);
  bad = {};
  bad.popularFraction = 1.5;
  EXPECT_THROW(
      simulateServiceMonth({cheapProfile()}, Bytes::fromTB(1.0), kAmazon, bad),
      std::invalid_argument);
  bad = {};
  bad.popularRegionCount = 0;
  EXPECT_THROW(
      simulateServiceMonth({cheapProfile()}, Bytes::fromTB(1.0), kAmazon, bad),
      std::invalid_argument);
  RequestProfile negative = cheapProfile();
  negative.weight = -1.0;
  EXPECT_THROW(
      simulateServiceMonth({negative}, Bytes::fromTB(1.0), kAmazon),
      std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::analysis
