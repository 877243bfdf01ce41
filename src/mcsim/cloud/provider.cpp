#include "mcsim/cloud/provider.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "mcsim/util/json.hpp"

namespace mcsim::cloud {

// -- ProviderProfile ---------------------------------------------------------

const InstanceType* ProviderProfile::findInstance(
    const std::string& skuName) const {
  if (instanceTypes.empty()) return nullptr;
  if (skuName.empty()) return &instanceTypes.front();
  for (const InstanceType& sku : instanceTypes)
    if (sku.name == skuName) return &sku;
  return nullptr;
}

const StorageClass* ProviderProfile::findStorageClass(
    const std::string& className) const {
  if (storageClasses.empty()) return nullptr;
  if (className.empty()) return &storageClasses.front();
  for (const StorageClass& cls : storageClasses)
    if (cls.name == className) return &cls;
  return nullptr;
}

namespace {

[[noreturn]] void unknownSku(const std::string& provider, const char* kind,
                             const std::string& skuName) {
  throw std::out_of_range("provider '" + provider + "' has no " + kind +
                          " named '" + skuName + "'");
}

}  // namespace

Pricing ProviderProfile::pricing(const std::string& instance,
                                 const std::string& storageClass) const {
  const InstanceType* sku = findInstance(instance);
  if (sku == nullptr) unknownSku(name, "instance type", instance);
  const StorageClass* cls = findStorageClass(storageClass);
  if (cls == nullptr) unknownSku(name, "storage class", storageClass);

  Pricing p;
  p.providerName = name;
  p.storagePerGBMonth = cls->perGBMonth;
  p.transferInPerGB = transfer.inPerGB;
  p.transferOutPerGB = transfer.outPerGB;
  // Per reference-CPU-hour: a calibrated task of r reference-seconds takes
  // r / speedFactor instance-seconds, so its usage bill is
  // r * hourlyRate / speedFactor per hour of reference time.
  p.cpuPerHour = sku->hourlyRate / sku->speedFactor;
  return p;
}

// -- ProviderCatalog ---------------------------------------------------------

bool ProviderCatalog::contains(const std::string& name) const {
  return profiles_.count(name) != 0;
}

const ProviderProfile* ProviderCatalog::find(const std::string& name) const {
  auto it = profiles_.find(name);
  return it == profiles_.end() ? nullptr : &it->second;
}

const ProviderProfile& ProviderCatalog::at(const std::string& name) const {
  const ProviderProfile* profile = find(name);
  if (profile == nullptr) {
    std::string known;
    for (const auto& [key, value] : profiles_) {
      (void)value;
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::out_of_range("unknown provider '" + name +
                            "' (catalog has: " + known + ")");
  }
  return *profile;
}

Pricing ProviderCatalog::pricing(const std::string& name,
                                 const std::string& instance,
                                 const std::string& storageClass) const {
  return at(name).pricing(instance, storageClass);
}

void ProviderCatalog::add(ProviderProfile profile) {
  std::string key = profile.name;
  profiles_.insert_or_assign(std::move(key), std::move(profile));
}

std::vector<std::string> ProviderCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(profiles_.size());
  for (const auto& [key, value] : profiles_) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

// -- builtin profiles --------------------------------------------------------

namespace {

/// The paper's fee table (§3), normalized per-second (§6): one reference
/// instance, one storage tier, the 2008 transfer rates.
ProviderProfile builtinAmazon2008() {
  ProviderProfile p;
  p.name = "amazon-2008";
  p.displayName = "Amazon EC2 + S3 (2008, paper fee table)";
  p.year = 2008;
  p.instanceTypes = {{"m1.small", 1.0, Money(0.10),
                      BillingGranularity::PerSecond, 0.0, 0.0}};
  p.storageClasses = {{"standard", Money(0.15), Money(0.0)}};
  p.transfer = {Money(0.10), Money(0.16)};
  return p;
}

/// The §6 Question 2a what-if: storage far more expensive, transfers far
/// cheaper, same CPU rate (deliberately past the crossover: at full
/// parallelism files are resident for seconds, so regular-mode storage only
/// overtakes remote-mode transfer once the storage/transfer price ratio is
/// ~10^4 x Amazon's).
ProviderProfile builtinStorageHeavy() {
  ProviderProfile p;
  p.name = "storage-heavy";
  p.displayName = "What-if: expensive storage, cheap transfer (paper §6 Q2a)";
  p.year = 2008;
  p.instanceTypes = {{"standard", 1.0, Money(0.10),
                      BillingGranularity::PerSecond, 0.0, 0.0}};
  p.storageClasses = {{"standard", Money(75.00), Money(0.0)}};
  p.transfer = {Money(0.001), Money(0.0016)};
  return p;
}

/// The fee-structure ablation's compute-discounted provider.
ProviderProfile builtinComputeDiscount() {
  ProviderProfile p;
  p.name = "compute-discount";
  p.displayName = "What-if: discounted compute, premium storage";
  p.year = 2008;
  p.instanceTypes = {{"standard", 1.0, Money(0.025),
                      BillingGranularity::PerSecond, 0.0, 0.0}};
  p.storageClasses = {{"standard", Money(0.30), Money(0.0)}};
  p.transfer = {Money(0.12), Money(0.20)};
  return p;
}

/// A later Amazon generation: three SKUs at different speed/price points,
/// hour-granular billing, a spot market, reduced-redundancy and
/// Glacier-style archive tiers (the retrieval-fee axis).
ProviderProfile builtinAmazon2010() {
  ProviderProfile p;
  p.name = "amazon-2010";
  p.displayName = "Amazon EC2 + S3 (2010 generation, spot + archive tiers)";
  p.year = 2010;
  p.instanceTypes = {
      {"m1.small", 1.0, Money(0.085), BillingGranularity::PerHour, 0.62,
       0.05},
      {"c1.medium", 2.5, Money(0.17), BillingGranularity::PerHour, 0.60,
       0.08},
      {"m2.xlarge", 3.25, Money(0.50), BillingGranularity::PerHour, 0.55,
       0.03},
  };
  p.storageClasses = {
      {"standard", Money(0.15), Money(0.0)},
      {"reduced-redundancy", Money(0.10), Money(0.0)},
      {"glacier", Money(0.01), Money(0.12)},
  };
  p.transfer = {Money(0.10), Money(0.15)};
  return p;
}

/// A GCP-style 2013 profile: minute-granular billing, preemptible-style
/// deep spot discounts, free ingress.
ProviderProfile builtinGcp2013() {
  ProviderProfile p;
  p.name = "gcp-2013";
  p.displayName = "Google Compute Engine + GCS (2013, per-minute billing)";
  p.year = 2013;
  p.instanceTypes = {
      {"n1-standard-1", 1.3, Money(0.104), BillingGranularity::PerMinute,
       0.70, 0.10},
      {"n1-standard-4", 5.2, Money(0.416), BillingGranularity::PerMinute,
       0.70, 0.10},
  };
  p.storageClasses = {
      {"standard", Money(0.085), Money(0.0)},
      {"durable-reduced", Money(0.054), Money(0.0)},
  };
  p.transfer = {Money(0.0), Money(0.12)};
  return p;
}

ProviderCatalog makeBuiltinCatalog() {
  ProviderCatalog catalog;
  catalog.add(builtinAmazon2008());
  catalog.add(builtinStorageHeavy());
  catalog.add(builtinComputeDiscount());
  catalog.add(builtinAmazon2010());
  catalog.add(builtinGcp2013());
  return catalog;
}

}  // namespace

const ProviderCatalog& ProviderCatalog::builtin() {
  static const ProviderCatalog catalog = makeBuiltinCatalog();
  return catalog;
}

// -- JSON codec --------------------------------------------------------------

namespace {

/// Accumulates the path-qualified error for the Expected channel; empty
/// while decoding is still on track.
class ProfileDecoder {
 public:
  explicit ProfileDecoder(const json::JsonValue& root) : root_(root) {}

  Expected<ProviderProfile> decode() {
    ProviderProfile p;
    if (!root_.isObject())
      return fail("profile: expected a JSON object at top level");

    static const std::vector<std::string> kKnown = {
        "name",          "display_name",    "year",
        "instance_types", "storage_classes", "transfer"};
    if (auto err = json::unknownKeyError(root_, "profile", kKnown))
      return fail(*err);

    if (auto err = readString(root_, "profile", "name", p.name)) return *err;
    if (p.name.empty()) return fail("profile.name: must be non-empty");
    if (root_.has("display_name")) {
      if (auto err =
              readString(root_, "profile", "display_name", p.displayName))
        return *err;
    }
    if (root_.has("year")) {
      double year = 0.0;
      if (auto err = readNumber(root_, "profile", "year", year)) return *err;
      p.year = static_cast<int>(year);
    }

    if (auto err = decodeInstances(p)) return *err;
    if (auto err = decodeStorageClasses(p)) return *err;
    if (auto err = decodeTransfer(p)) return *err;
    return p;
  }

 private:
  using Error = Unexpected<std::string>;

  Error fail(std::string message) { return Error{std::move(message)}; }

  std::optional<Error> readString(const json::JsonValue& obj,
                                  const std::string& where,
                                  const std::string& key, std::string& out) {
    if (!obj.has(key)) return fail(where + "." + key + ": missing");
    const json::JsonValue& v = obj.at(key);
    if (!v.isString())
      return fail(where + "." + key + ": expected a string");
    out = v.asString();
    return std::nullopt;
  }

  std::optional<Error> readNumber(const json::JsonValue& obj,
                                  const std::string& where,
                                  const std::string& key, double& out) {
    if (!obj.has(key)) return fail(where + "." + key + ": missing");
    const json::JsonValue& v = obj.at(key);
    if (!v.isNumber())
      return fail(where + "." + key + ": expected a number");
    out = v.asNumber();
    return std::nullopt;
  }

  std::optional<Error> readRate(const json::JsonValue& obj,
                                const std::string& where,
                                const std::string& key, Money& out) {
    double value = 0.0;
    if (auto err = readNumber(obj, where, key, value)) return err;
    if (value < 0.0)
      return fail(where + "." + key + ": must be >= 0, got " +
                  std::to_string(value));
    out = Money(value);
    return std::nullopt;
  }

  std::optional<Error> decodeInstances(ProviderProfile& p) {
    if (!root_.has("instance_types"))
      return fail("profile.instance_types: missing");
    const json::JsonValue& list = root_.at("instance_types");
    if (!list.isArray() || list.asArray().empty())
      return fail("profile.instance_types: expected a non-empty array");

    static const std::vector<std::string> kKnown = {
        "name",          "speed_factor", "hourly_rate",
        "billing",       "spot_discount", "interruptions_per_hour"};
    for (std::size_t i = 0; i < list.asArray().size(); ++i) {
      const json::JsonValue& entry = list.asArray()[i];
      const std::string where =
          "profile.instance_types[" + std::to_string(i) + "]";
      if (!entry.isObject()) return fail(where + ": expected an object");
      if (auto err = json::unknownKeyError(entry, where, kKnown))
        return fail(*err);

      InstanceType sku;
      if (auto err = readString(entry, where, "name", sku.name)) return err;
      if (sku.name.empty()) return fail(where + ".name: must be non-empty");
      if (auto err =
              readNumber(entry, where, "speed_factor", sku.speedFactor))
        return err;
      if (!(sku.speedFactor > 0.0))
        return fail(where + ".speed_factor: must be > 0, got " +
                    std::to_string(sku.speedFactor));
      if (auto err = readRate(entry, where, "hourly_rate", sku.hourlyRate))
        return err;
      std::string billing;
      if (auto err = readString(entry, where, "billing", billing)) return err;
      if (!parseBillingGranularity(billing, sku.granularity))
        return fail(where + ".billing: unknown granularity '" + billing +
                    "' (want per-second|per-minute|per-hour)");
      if (entry.has("spot_discount")) {
        if (auto err = readNumber(entry, where, "spot_discount",
                                  sku.spotDiscount))
          return err;
        if (sku.spotDiscount < 0.0 || sku.spotDiscount >= 1.0)
          return fail(where + ".spot_discount: must be in [0, 1), got " +
                      std::to_string(sku.spotDiscount));
      }
      if (entry.has("interruptions_per_hour")) {
        if (auto err = readNumber(entry, where, "interruptions_per_hour",
                                  sku.interruptionsPerHour))
          return err;
        if (sku.interruptionsPerHour < 0.0)
          return fail(where + ".interruptions_per_hour: must be >= 0, got " +
                      std::to_string(sku.interruptionsPerHour));
      }
      for (const InstanceType& existing : p.instanceTypes)
        if (existing.name == sku.name)
          return fail(where + ".name: duplicate instance type '" + sku.name +
                      "'");
      p.instanceTypes.push_back(std::move(sku));
    }
    return std::nullopt;
  }

  std::optional<Error> decodeStorageClasses(ProviderProfile& p) {
    if (!root_.has("storage_classes"))
      return fail("profile.storage_classes: missing");
    const json::JsonValue& list = root_.at("storage_classes");
    if (!list.isArray() || list.asArray().empty())
      return fail("profile.storage_classes: expected a non-empty array");

    static const std::vector<std::string> kKnown = {"name", "per_gb_month",
                                                    "retrieval_per_gb"};
    for (std::size_t i = 0; i < list.asArray().size(); ++i) {
      const json::JsonValue& entry = list.asArray()[i];
      const std::string where =
          "profile.storage_classes[" + std::to_string(i) + "]";
      if (!entry.isObject()) return fail(where + ": expected an object");
      if (auto err = json::unknownKeyError(entry, where, kKnown))
        return fail(*err);

      StorageClass cls;
      if (auto err = readString(entry, where, "name", cls.name)) return err;
      if (cls.name.empty()) return fail(where + ".name: must be non-empty");
      if (auto err = readRate(entry, where, "per_gb_month", cls.perGBMonth))
        return err;
      if (entry.has("retrieval_per_gb")) {
        if (auto err = readRate(entry, where, "retrieval_per_gb",
                                cls.retrievalPerGB))
          return err;
      }
      for (const StorageClass& existing : p.storageClasses)
        if (existing.name == cls.name)
          return fail(where + ".name: duplicate storage class '" + cls.name +
                      "'");
      p.storageClasses.push_back(std::move(cls));
    }
    return std::nullopt;
  }

  std::optional<Error> decodeTransfer(ProviderProfile& p) {
    if (!root_.has("transfer")) return fail("profile.transfer: missing");
    const json::JsonValue& obj = root_.at("transfer");
    if (!obj.isObject()) return fail("profile.transfer: expected an object");
    static const std::vector<std::string> kKnown = {"in_per_gb",
                                                    "out_per_gb"};
    if (auto err = json::unknownKeyError(obj, "profile.transfer", kKnown))
      return fail(*err);
    if (auto err = readRate(obj, "profile.transfer", "in_per_gb",
                            p.transfer.inPerGB))
      return err;
    if (auto err = readRate(obj, "profile.transfer", "out_per_gb",
                            p.transfer.outPerGB))
      return err;
    return std::nullopt;
  }

  const json::JsonValue& root_;
};

}  // namespace

Expected<ProviderProfile> providerFromJson(const json::JsonValue& value) {
  return ProfileDecoder(value).decode();
}

json::JsonValue providerToJson(const ProviderProfile& profile) {
  json::JsonObject root;
  root["name"] = profile.name;
  if (!profile.displayName.empty())
    root["display_name"] = profile.displayName;
  if (profile.year != 0) root["year"] = profile.year;

  json::JsonArray instances;
  for (const InstanceType& sku : profile.instanceTypes) {
    json::JsonObject entry;
    entry["name"] = sku.name;
    entry["speed_factor"] = sku.speedFactor;
    entry["hourly_rate"] = sku.hourlyRate.value();
    entry["billing"] = std::string(billingGranularityName(sku.granularity));
    // Optional JSON keys are emitted only when set; 0.0 is the exact unset
    // default, never a computed rate.  mcsim-lint: allow(float-equality)
    if (sku.spotDiscount != 0.0) entry["spot_discount"] = sku.spotDiscount;
    if (sku.interruptionsPerHour != 0.0)  // mcsim-lint: allow(float-equality)
      entry["interruptions_per_hour"] = sku.interruptionsPerHour;
    instances.push_back(json::JsonValue(std::move(entry)));
  }
  root["instance_types"] = std::move(instances);

  json::JsonArray classes;
  for (const StorageClass& cls : profile.storageClasses) {
    json::JsonObject entry;
    entry["name"] = cls.name;
    entry["per_gb_month"] = cls.perGBMonth.value();
    if (cls.retrievalPerGB.value() != 0.0)  // mcsim-lint: allow(float-equality)
      entry["retrieval_per_gb"] = cls.retrievalPerGB.value();
    classes.push_back(json::JsonValue(std::move(entry)));
  }
  root["storage_classes"] = std::move(classes);

  json::JsonObject transfer;
  transfer["in_per_gb"] = profile.transfer.inPerGB.value();
  transfer["out_per_gb"] = profile.transfer.outPerGB.value();
  root["transfer"] = std::move(transfer);

  return json::JsonValue(std::move(root));
}

Expected<ProviderProfile> loadProviderProfile(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    return makeUnexpected("cannot open provider profile '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  json::JsonValue doc{nullptr};
  try {
    doc = json::parseJson(buffer.str());
  } catch (const std::exception& e) {
    return makeUnexpected("provider profile '" + path +
                          "': " + std::string(e.what()));
  }
  Expected<ProviderProfile> profile = providerFromJson(doc);
  if (!profile)
    return makeUnexpected("provider profile '" + path +
                          "': " + profile.error());
  return profile;
}

Expected<ProviderCatalog> loadProviderCatalog(const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec))
    return makeUnexpected("provider catalog: '" + directory +
                          "' is not a directory");

  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() == ".json")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty())
    return makeUnexpected("provider catalog: no *.json profiles in '" +
                          directory + "'");

  ProviderCatalog catalog;
  for (const std::string& path : paths) {
    Expected<ProviderProfile> profile = loadProviderProfile(path);
    if (!profile) return makeUnexpected(profile.error());
    if (catalog.contains(profile->name))
      return makeUnexpected("provider catalog: duplicate provider '" +
                            profile->name + "' (second copy in '" + path +
                            "')");
    catalog.add(std::move(*profile));
  }
  return catalog;
}

}  // namespace mcsim::cloud
