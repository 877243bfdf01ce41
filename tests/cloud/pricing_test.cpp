#include "mcsim/cloud/pricing.hpp"

#include <gtest/gtest.h>

#include "mcsim/cloud/provider.hpp"

namespace mcsim::cloud {
namespace {

TEST(Pricing, Amazon2008FeeTable) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  EXPECT_EQ(p.providerName, "amazon-2008");
  EXPECT_DOUBLE_EQ(p.storagePerGBMonth.value(), 0.15);
  EXPECT_DOUBLE_EQ(p.transferInPerGB.value(), 0.10);
  EXPECT_DOUBLE_EQ(p.transferOutPerGB.value(), 0.16);
  EXPECT_DOUBLE_EQ(p.cpuPerHour.value(), 0.10);
}

TEST(Pricing, PerSecondNormalization) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  // $0.1 per CPU-hour = $1/36000 per CPU-second.
  EXPECT_NEAR(p.cpuDollarsPerSecond(), 0.10 / 3600.0, 1e-15);
  // $0.15 per GB-month over 30-day months.
  EXPECT_NEAR(p.storageDollarsPerByteSecond(), 0.15 / 1e9 / 2592000.0, 1e-25);
  EXPECT_NEAR(p.transferInDollarsPerByte(), 0.10 / 1e9, 1e-15);
  EXPECT_NEAR(p.transferOutDollarsPerByte(), 0.16 / 1e9, 1e-15);
}

TEST(Pricing, CpuCostOneHour) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  EXPECT_NEAR(p.cpuCost(3600.0).value(), 0.10, 1e-12);
  // 1 degree Montage: 5.6 CPU-hours -> $0.56 (paper Fig 10).
  EXPECT_NEAR(p.cpuCost(5.6 * 3600.0).value(), 0.56, 1e-12);
}

TEST(Pricing, StorageCostGBMonth) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  // 12 TB for one month = 12,000 GB x $0.15 = $1,800 (paper Q2b).
  const Money cost = p.storageCost(Bytes::fromTB(12.0), kSecondsPerMonth);
  EXPECT_NEAR(cost.value(), 1800.0, 1e-9);
}

TEST(Pricing, TransferCosts) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  // Uploading the 12 TB archive: $1,200 at $0.1/GB (paper Q2b).
  EXPECT_NEAR(p.transferInCost(Bytes::fromTB(12.0)).value(), 1200.0, 1e-9);
  EXPECT_NEAR(p.transferOutCost(Bytes::fromGB(1.0)).value(), 0.16, 1e-12);
}

TEST(Pricing, ByteSecondsOverloadConsistent) {
  const Pricing p = ProviderCatalog::builtin().pricing("amazon-2008");
  const Bytes amount = Bytes::fromGB(3.0);
  const double duration = 12345.0;
  EXPECT_DOUBLE_EQ(p.storageCost(amount, duration).value(),
                   p.storageCost(amount.value() * duration).value());
}

TEST(Pricing, StorageHeavyProviderInvertsTradeOff) {
  const Pricing cheap = ProviderCatalog::builtin().pricing("amazon-2008");
  const Pricing heavy = ProviderCatalog::builtin().pricing("storage-heavy");
  EXPECT_GT(heavy.storageDollarsPerByteSecond(),
            cheap.storageDollarsPerByteSecond());
  EXPECT_LT(heavy.transferInDollarsPerByte(),
            cheap.transferInDollarsPerByte());
  EXPECT_LT(heavy.transferOutDollarsPerByte(),
            cheap.transferOutDollarsPerByte());
}

TEST(Pricing, ComputeDiscountProviderCheapCpu) {
  const ProviderCatalog& catalog = ProviderCatalog::builtin();
  EXPECT_LT(catalog.pricing("compute-discount").cpuDollarsPerSecond(),
            catalog.pricing("amazon-2008").cpuDollarsPerSecond());
}

TEST(Pricing, ZeroRatesGiveZeroCosts) {
  const Pricing p;  // all zero
  EXPECT_DOUBLE_EQ(p.cpuCost(1e6).value(), 0.0);
  EXPECT_DOUBLE_EQ(p.storageCost(1e18).value(), 0.0);
  EXPECT_DOUBLE_EQ(p.transferInCost(Bytes::fromTB(1.0)).value(), 0.0);
}

}  // namespace
}  // namespace mcsim::cloud
