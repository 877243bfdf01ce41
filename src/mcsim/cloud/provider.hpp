// Provider catalog: named cloud providers with multi-generation SKUs.
//
// The paper's cost analysis (§3, §6) hangs on one fee table — Amazon's 2008
// rates — and its what-if scenarios are hand-written variations of it.  The
// catalog makes provider choice a first-class modeled axis: each
// ProviderProfile carries instance types (relative speed, hourly rate,
// billing granularity, optional spot-style discount + interruption rate),
// tiered storage classes (per-GB-month rate, retrieval fee) and a transfer
// table (ingress/egress, which also prices cross-provider hops: leaving one
// provider pays its egress, entering another pays that one's ingress).
//
// Profiles serialize to/from JSON (config/providers/*.json ships one file
// per builtin profile); parsing validates through Expected<> so fuzzed or
// hand-edited profiles are rejected with actionable messages instead of
// exceptions.  The `Pricing` struct is a normalized per-reference-CPU view
// derived from a catalog entry via ProviderProfile::pricing().
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/util/expected.hpp"
#include "mcsim/util/units.hpp"

namespace mcsim::json {
class JsonValue;
}

namespace mcsim::cloud {

/// One purchasable compute SKU.  `speedFactor` is relative to the paper's
/// reference processor (the machine whose task runtimes the workflows are
/// calibrated in): a task of r reference-seconds takes r / speedFactor wall
/// seconds on this instance.
struct InstanceType {
  std::string name;           ///< e.g. "m1.small".
  double speedFactor = 1.0;   ///< > 0; 1.0 = the paper's reference CPU.
  Money hourlyRate;           ///< On-demand $ per instance-hour.
  BillingGranularity granularity = BillingGranularity::PerSecond;
  /// Spot-style pricing: fraction off `hourlyRate` when bidding for
  /// reclaimable capacity (0 = no spot market for this SKU) and the
  /// expected reclaims per provisioned instance-hour that come with it.
  double spotDiscount = 0.0;          ///< In [0, 1).
  double interruptionsPerHour = 0.0;  ///< >= 0; meaningful when spot.

  bool spotCapable() const { return spotDiscount > 0.0; }
  /// $ per instance-hour actually paid.
  Money effectiveHourlyRate(bool spot) const {
    return spot ? hourlyRate * (1.0 - spotDiscount) : hourlyRate;
  }
};

/// One storage tier.  Archive-style tiers trade a low resting rate for a
/// per-GB retrieval fee on every read-back.
struct StorageClass {
  std::string name;       ///< e.g. "standard", "glacier".
  Money perGBMonth;       ///< Resting rate, $ per GB-month (30-day months).
  Money retrievalPerGB;   ///< Read-back fee; 0 for online tiers.

  double dollarsPerByteSecond() const {
    return perGBMonth.value() / kBytesPerGB / kSecondsPerMonth;
  }
};

/// Ingress/egress rates at the provider's boundary.  Cross-provider moves
/// pay the source's `outPerGB` plus the destination's `inPerGB`;
/// intra-provider access is free (as with EC2 <-> S3).
struct TransferRates {
  Money inPerGB;
  Money outPerGB;
};

/// A named provider: one generation of one vendor's fee schedule.
struct ProviderProfile {
  std::string name;         ///< Catalog key, e.g. "amazon-2008".
  std::string displayName;  ///< Human-facing, e.g. "Amazon EC2+S3 (2008)".
  int year = 0;             ///< Fee-schedule vintage.
  std::vector<InstanceType> instanceTypes;    ///< Non-empty; [0] = default.
  std::vector<StorageClass> storageClasses;   ///< Non-empty; [0] = default.
  TransferRates transfer;

  /// nullptr when the SKU name is unknown; "" selects the default.
  const InstanceType* findInstance(const std::string& skuName) const;
  const StorageClass* findStorageClass(const std::string& className) const;
  const InstanceType& defaultInstance() const { return instanceTypes.front(); }
  const StorageClass& defaultStorageClass() const {
    return storageClasses.front();
  }

  /// The legacy normalized fee view the sweeps consume.  CPU is expressed
  /// per reference-CPU-hour (instance rate / speedFactor) so usage-billed
  /// costs of calibrated workflows come out right; storage and transfer
  /// come from the chosen class and the transfer table.  "" picks the
  /// defaults; unknown SKU names throw std::out_of_range.
  Pricing pricing(const std::string& instance = "",
                  const std::string& storageClass = "") const;
};

/// An ordered set of provider profiles, keyed (and iterated) by name.
class ProviderCatalog {
 public:
  /// The built-in market: the paper's fee table plus its two what-if
  /// providers, and two later-generation profiles (multi-SKU Amazon 2010
  /// with spot + Glacier-style archive, GCP 2013 with per-minute billing
  /// and free ingress).  Immutable; construct-on-first-use.
  static const ProviderCatalog& builtin();

  bool contains(const std::string& name) const;
  /// nullptr when absent.
  const ProviderProfile* find(const std::string& name) const;
  /// Throws std::out_of_range listing the known names when absent.
  const ProviderProfile& at(const std::string& name) const;
  /// at(name).pricing(instance, storageClass) — the one-line lookup the
  /// migrated call sites use.
  Pricing pricing(const std::string& name, const std::string& instance = "",
                  const std::string& storageClass = "") const;

  /// Insert or replace by profile name.
  void add(ProviderProfile profile);

  std::size_t size() const { return profiles_.size(); }
  std::vector<std::string> names() const;  ///< Sorted (map order).
  const std::map<std::string, ProviderProfile>& profiles() const {
    return profiles_;
  }

 private:
  std::map<std::string, ProviderProfile> profiles_;
};

// -- JSON codec (config/providers/*.json) ------------------------------------
//
// Schema (all keys required unless noted; unknown keys are rejected):
//   {
//     "name": "amazon-2008",
//     "display_name": "Amazon EC2 + S3 (2008 fee table)",   // optional
//     "year": 2008,                                          // optional
//     "instance_types": [
//       {"name": "m1.small", "speed_factor": 1.0, "hourly_rate": 0.10,
//        "billing": "per-second",            // per-second|per-minute|per-hour
//        "spot_discount": 0.0,               // optional, [0,1)
//        "interruptions_per_hour": 0.0}      // optional, >= 0
//     ],
//     "storage_classes": [
//       {"name": "standard", "per_gb_month": 0.15,
//        "retrieval_per_gb": 0.0}            // optional, >= 0
//     ],
//     "transfer": {"in_per_gb": 0.10, "out_per_gb": 0.16}
//   }

/// Validate and decode one profile; errors are one-line actionable messages
/// ("instance_types[1].speed_factor: must be > 0, got -2").
Expected<ProviderProfile> providerFromJson(const json::JsonValue& value);

/// Deterministic encoding: round-trips through providerFromJson to an
/// identical fee schedule (same doubles — the writer's %.12g covers every
/// rate the catalog carries).
json::JsonValue providerToJson(const ProviderProfile& profile);

/// Parse one config/providers/<name>.json file.  I/O and JSON syntax errors
/// come back through the same Expected channel as validation failures.
Expected<ProviderProfile> loadProviderProfile(const std::string& path);

/// Load every *.json in `directory` into a catalog (sorted file order).
/// Fails on the first unreadable or invalid profile — the committed-profile
/// validation test runs this over config/providers/ so a bad profile fails
/// the build.
Expected<ProviderCatalog> loadProviderCatalog(const std::string& directory);

}  // namespace mcsim::cloud
