// Cloud fee structure and per-second normalization (paper §3).
//
// "As of the writing of this paper, the charging rates were: $0.15 per
// GB-Month for storage, $0.1 per GB for transferring data in, $0.16 per GB
// for transferring data out, $0.1 per CPU-hour ... in our experiments we
// normalized the costs on a per second basis" — and §6: "we ignore
// limitations on the granularity of Amazon fee structure in time and assume
// the least possible granularity i.e. $ per Byte-seconds for storage, $ per
// Bytes for transfers and $ per CPU-second for compute resources."
//
// Conventions: 1 GB = 1e9 bytes, 1 month = 30 days (see units.hpp).
#pragma once

#include <string>

#include "mcsim/util/units.hpp"

namespace mcsim::cloud {

/// A provider's fee schedule in its natural units, with normalized-rate
/// helpers.  Accessing data on storage from compute resources is free (as
/// with EC2→S3), so no rate exists for it.  Look a schedule up by name
/// with `ProviderCatalog::builtin().pricing("amazon-2008")`
/// (cloud/provider.hpp).
struct Pricing {
  std::string providerName = "unnamed";
  Money storagePerGBMonth{0.0};
  Money transferInPerGB{0.0};
  Money transferOutPerGB{0.0};
  Money cpuPerHour{0.0};

  // -- normalized rates (dollars per base unit) -----------------------------
  double storageDollarsPerByteSecond() const {
    return storagePerGBMonth.value() / kBytesPerGB / kSecondsPerMonth;
  }
  double transferInDollarsPerByte() const {
    return transferInPerGB.value() / kBytesPerGB;
  }
  double transferOutDollarsPerByte() const {
    return transferOutPerGB.value() / kBytesPerGB;
  }
  double cpuDollarsPerSecond() const {
    return cpuPerHour.value() / kSecondsPerHour;
  }

  // -- cost helpers ----------------------------------------------------------
  Money storageCost(double byteSeconds) const {
    return Money(byteSeconds * storageDollarsPerByteSecond());
  }
  Money transferInCost(Bytes amount) const {
    return Money(amount.value() * transferInDollarsPerByte());
  }
  Money transferOutCost(Bytes amount) const {
    return Money(amount.value() * transferOutDollarsPerByte());
  }
  Money cpuCost(double cpuSeconds) const {
    return Money(cpuSeconds * cpuDollarsPerSecond());
  }
  /// Cost of keeping `amount` resident for `seconds`.
  Money storageCost(Bytes amount, double seconds) const {
    return storageCost(amount.value() * seconds);
  }
};

}  // namespace mcsim::cloud
