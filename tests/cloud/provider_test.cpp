#include "mcsim/cloud/provider.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mcsim/util/json.hpp"

// Set by CMake to ${CMAKE_SOURCE_DIR}/config/providers — the committed
// profile files these tests validate against the builtin catalog.
#ifndef MCSIM_PROVIDERS_DIR
#error "MCSIM_PROVIDERS_DIR must be defined by the build"
#endif

namespace mcsim::cloud {
namespace {

void expectSameSchedule(const ProviderProfile& a, const ProviderProfile& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.displayName, b.displayName);
  EXPECT_EQ(a.year, b.year);
  ASSERT_EQ(a.instanceTypes.size(), b.instanceTypes.size());
  for (std::size_t i = 0; i < a.instanceTypes.size(); ++i) {
    const InstanceType& x = a.instanceTypes[i];
    const InstanceType& y = b.instanceTypes[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_NEAR(x.speedFactor, y.speedFactor, 1e-12);
    EXPECT_NEAR(x.hourlyRate.value(), y.hourlyRate.value(), 1e-12);
    EXPECT_EQ(x.granularity, y.granularity);
    EXPECT_NEAR(x.spotDiscount, y.spotDiscount, 1e-12);
    EXPECT_NEAR(x.interruptionsPerHour, y.interruptionsPerHour, 1e-12);
  }
  ASSERT_EQ(a.storageClasses.size(), b.storageClasses.size());
  for (std::size_t i = 0; i < a.storageClasses.size(); ++i) {
    const StorageClass& x = a.storageClasses[i];
    const StorageClass& y = b.storageClasses[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_NEAR(x.perGBMonth.value(), y.perGBMonth.value(), 1e-12);
    EXPECT_NEAR(x.retrievalPerGB.value(), y.retrievalPerGB.value(), 1e-12);
  }
  EXPECT_NEAR(a.transfer.inPerGB.value(), b.transfer.inPerGB.value(), 1e-12);
  EXPECT_NEAR(a.transfer.outPerGB.value(), b.transfer.outPerGB.value(), 1e-12);
}

TEST(ProviderCatalog, BuiltinContainsAllGenerations) {
  const ProviderCatalog& catalog = ProviderCatalog::builtin();
  EXPECT_EQ(catalog.size(), 5u);
  const std::vector<std::string> expected = {
      "amazon-2008", "amazon-2010", "compute-discount", "gcp-2013",
      "storage-heavy"};
  EXPECT_EQ(catalog.names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(catalog.contains(name));
    ASSERT_NE(catalog.find(name), nullptr);
    EXPECT_EQ(catalog.at(name).name, name);
    EXPECT_FALSE(catalog.at(name).instanceTypes.empty());
    EXPECT_FALSE(catalog.at(name).storageClasses.empty());
  }
  EXPECT_FALSE(catalog.contains("nimbus"));
  EXPECT_EQ(catalog.find("nimbus"), nullptr);
  EXPECT_THROW(catalog.at("nimbus"), std::out_of_range);
}

TEST(ProviderCatalog, AtErrorListsKnownNames) {
  try {
    ProviderCatalog::builtin().at("nimbus");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nimbus"), std::string::npos) << what;
    EXPECT_NE(what.find("amazon-2008"), std::string::npos) << what;
  }
}

// The three fee tables that predate the catalog (once the Pricing statics)
// keep their exact values as catalog pricing views.
TEST(ProviderCatalog, LegacyStaticsAreByteIdenticalShims) {
  const Pricing amazon = ProviderCatalog::builtin().pricing("amazon-2008");
  EXPECT_EQ(amazon.providerName, "amazon-2008");
  EXPECT_EQ(amazon.storagePerGBMonth.value(), 0.15);
  EXPECT_EQ(amazon.transferInPerGB.value(), 0.10);
  EXPECT_EQ(amazon.transferOutPerGB.value(), 0.16);
  EXPECT_EQ(amazon.cpuPerHour.value(), 0.10);

  const Pricing heavy = ProviderCatalog::builtin().pricing("storage-heavy");
  EXPECT_EQ(heavy.providerName, "storage-heavy");
  EXPECT_EQ(heavy.storagePerGBMonth.value(), 75.00);
  EXPECT_EQ(heavy.transferInPerGB.value(), 0.001);
  EXPECT_EQ(heavy.transferOutPerGB.value(), 0.0016);
  EXPECT_EQ(heavy.cpuPerHour.value(), 0.10);

  const Pricing discount =
      ProviderCatalog::builtin().pricing("compute-discount");
  EXPECT_EQ(discount.providerName, "compute-discount");
  EXPECT_EQ(discount.storagePerGBMonth.value(), 0.30);
  EXPECT_EQ(discount.transferInPerGB.value(), 0.12);
  EXPECT_EQ(discount.transferOutPerGB.value(), 0.20);
  EXPECT_EQ(discount.cpuPerHour.value(), 0.025);
}

TEST(ProviderCatalog, PricingSelectsSkuAndNormalizesSpeed) {
  const ProviderProfile& amazon2010 =
      ProviderCatalog::builtin().at("amazon-2010");
  // c1.medium: $0.17/h at 2.5x reference speed -> $0.068 per
  // reference-CPU-hour in the normalized view.
  const Pricing p = amazon2010.pricing("c1.medium", "reduced-redundancy");
  EXPECT_DOUBLE_EQ(p.cpuPerHour.value(), 0.17 / 2.5);
  EXPECT_DOUBLE_EQ(p.storagePerGBMonth.value(), 0.10);
  EXPECT_THROW(amazon2010.pricing("m9.colossal"), std::out_of_range);
  EXPECT_THROW(amazon2010.pricing("", "tape"), std::out_of_range);
}

TEST(ProviderCatalog, SpotAndDefaultSelectors) {
  const ProviderProfile& amazon2010 =
      ProviderCatalog::builtin().at("amazon-2010");
  EXPECT_EQ(amazon2010.defaultInstance().name, "m1.small");
  EXPECT_EQ(amazon2010.defaultStorageClass().name, "standard");
  EXPECT_EQ(amazon2010.findInstance(""), &amazon2010.defaultInstance());
  EXPECT_EQ(amazon2010.findInstance("none"), nullptr);

  const InstanceType& sku = *amazon2010.findInstance("m1.small");
  EXPECT_TRUE(sku.spotCapable());
  EXPECT_DOUBLE_EQ(sku.effectiveHourlyRate(false).value(), 0.085);
  EXPECT_DOUBLE_EQ(sku.effectiveHourlyRate(true).value(), 0.085 * (1 - 0.62));

  const ProviderProfile& amazon2008 =
      ProviderCatalog::builtin().at("amazon-2008");
  EXPECT_FALSE(amazon2008.defaultInstance().spotCapable());
}

// Every builtin profile must survive encode -> decode with an identical fee
// schedule: the writer's %.12g covers every rate the catalog carries.
TEST(ProviderJson, BuiltinProfilesRoundTrip) {
  for (const auto& [name, profile] : ProviderCatalog::builtin().profiles()) {
    const json::JsonValue encoded = providerToJson(profile);
    const auto decoded = providerFromJson(encoded);
    ASSERT_TRUE(decoded.hasValue()) << name << ": " << decoded.error();
    expectSameSchedule(profile, decoded.value());
    // And the textual round-trip: dump -> parse -> decode.
    const auto reparsed = providerFromJson(json::parseJson(
        json::dumpJson(encoded)));
    ASSERT_TRUE(reparsed.hasValue()) << name << ": " << reparsed.error();
    expectSameSchedule(profile, reparsed.value());
  }
}

// The committed config/providers/*.json files are the source of truth the
// docs point at; each must decode to exactly the builtin profile.
TEST(ProviderJson, CommittedProfilesMatchBuiltin) {
  const auto loaded = loadProviderCatalog(MCSIM_PROVIDERS_DIR);
  ASSERT_TRUE(loaded.hasValue()) << loaded.error();
  const ProviderCatalog& builtin = ProviderCatalog::builtin();
  EXPECT_EQ(loaded.value().names(), builtin.names());
  for (const std::string& name : builtin.names()) {
    SCOPED_TRACE(name);
    expectSameSchedule(builtin.at(name), loaded.value().at(name));
  }
}

// The builtin amazon-2008 profile must agree with the committed JSON file —
// the decimal literals in the file parse to the same doubles the code uses.
TEST(ProviderJson, Amazon2008FileMatchesStatic) {
  const auto profile = loadProviderProfile(
      std::string(MCSIM_PROVIDERS_DIR) + "/amazon-2008.json");
  ASSERT_TRUE(profile.hasValue()) << profile.error();
  const Pricing fromFile = profile.value().pricing();
  const Pricing fromStatic =
      ProviderCatalog::builtin().pricing("amazon-2008");
  EXPECT_EQ(fromFile.storagePerGBMonth.value(),
            fromStatic.storagePerGBMonth.value());
  EXPECT_EQ(fromFile.transferInPerGB.value(),
            fromStatic.transferInPerGB.value());
  EXPECT_EQ(fromFile.transferOutPerGB.value(),
            fromStatic.transferOutPerGB.value());
  EXPECT_EQ(fromFile.cpuPerHour.value(), fromStatic.cpuPerHour.value());
}

TEST(ProviderJson, LoadReportsMissingFile) {
  const auto result = loadProviderProfile("/nonexistent/provider.json");
  ASSERT_FALSE(result.hasValue());
  EXPECT_NE(result.error().find("/nonexistent/provider.json"),
            std::string::npos)
      << result.error();
}

TEST(ProviderJson, LoadCatalogReportsMissingDirectory) {
  const auto result = loadProviderCatalog("/nonexistent/providers");
  ASSERT_FALSE(result.hasValue());
  EXPECT_NE(result.error().find("/nonexistent/providers"), std::string::npos)
      << result.error();
}

// Fuzz-style rejection table: every malformed or partial profile must come
// back through the Expected channel with an actionable, path-qualified
// message — never an exception, never a silently-defaulted field.
TEST(ProviderJson, MalformedProfilesRejectedWithActionableMessages) {
  const std::string valid = R"({
    "name": "p", "year": 2008,
    "instance_types": [
      {"name": "std", "speed_factor": 1.0, "hourly_rate": 0.1,
       "billing": "per-second"}],
    "storage_classes": [{"name": "std", "per_gb_month": 0.15}],
    "transfer": {"in_per_gb": 0.1, "out_per_gb": 0.16}
  })";
  {
    const auto ok = providerFromJson(json::parseJson(valid));
    ASSERT_TRUE(ok.hasValue()) << ok.error();
  }

  struct Case {
    const char* label;
    const char* text;          // Full JSON document to decode.
    const char* expectInError; // Substring the message must carry.
  };
  const std::vector<Case> cases = {
      {"not an object", R"([1, 2])", "profile: expected a JSON object"},
      {"missing name",
       R"({"instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.name"},
      {"empty name",
       R"({"name": "", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.name"},
      {"name wrong type",
       R"({"name": 7, "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.name"},
      {"unknown top-level key",
       R"({"name": "p", "cpu_per_hour": 0.1,
           "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "cpu_per_hour"},
      {"missing instance_types",
       R"({"name": "p",
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types"},
      {"empty instance_types",
       R"({"name": "p", "instance_types": [],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types"},
      {"negative speed factor",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": -2,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[0].speed_factor"},
      {"negative hourly rate",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": -0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[0].hourly_rate"},
      {"bad billing granularity",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-fortnight"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[0].billing"},
      {"spot discount of 1 would be free",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second",
           "spot_discount": 1.0}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[0].spot_discount"},
      {"negative interruptions",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second",
           "interruptions_per_hour": -1}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[0].interruptions_per_hour"},
      {"duplicate instance name",
       R"({"name": "p", "instance_types": [
           {"name": "s", "speed_factor": 1, "hourly_rate": 0.1,
            "billing": "per-second"},
           {"name": "s", "speed_factor": 2, "hourly_rate": 0.2,
            "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.instance_types[1].name"},
      {"unknown instance key",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second", "cores": 4}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "cores"},
      {"missing storage_classes",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.storage_classes"},
      {"negative storage rate",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": -0.1}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.storage_classes[0].per_gb_month"},
      {"negative retrieval fee",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1,
            "retrieval_per_gb": -0.5}],
           "transfer": {"in_per_gb": 0, "out_per_gb": 0}})",
       "profile.storage_classes[0].retrieval_per_gb"},
      {"missing transfer",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}]})",
       "profile.transfer"},
      {"transfer missing egress",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": 0}})",
       "profile.transfer.out_per_gb"},
      {"negative ingress",
       R"({"name": "p", "instance_types": [{"name": "s", "speed_factor": 1,
           "hourly_rate": 0.1, "billing": "per-second"}],
           "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
           "transfer": {"in_per_gb": -1, "out_per_gb": 0}})",
       "profile.transfer.in_per_gb"},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const auto result = providerFromJson(json::parseJson(c.text));
    ASSERT_FALSE(result.hasValue())
        << "accepted a malformed profile: " << c.label;
    EXPECT_NE(result.error().find(c.expectInError), std::string::npos)
        << "error was: " << result.error();
  }
}

// A syntactically-broken file and a duplicate profile name both fail the
// directory load with the offending path in the message.
TEST(ProviderJson, LoadCatalogRejectsBadFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mcsim_provider_test_catalog";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream(dir / "good.json") << R"({
      "name": "good",
      "instance_types": [{"name": "s", "speed_factor": 1.0,
        "hourly_rate": 0.1, "billing": "per-second"}],
      "storage_classes": [{"name": "s", "per_gb_month": 0.1}],
      "transfer": {"in_per_gb": 0.0, "out_per_gb": 0.0}
    })";
    std::ofstream(dir / "broken.json") << "{ not json";
  }
  const auto broken = loadProviderCatalog(dir.string());
  ASSERT_FALSE(broken.hasValue());
  EXPECT_NE(broken.error().find("broken.json"), std::string::npos)
      << broken.error();

  // Same profile name under two filenames: ambiguous, rejected.
  fs::remove(dir / "broken.json");
  {
    std::ofstream(dir / "also-good.json") << R"({
      "name": "good",
      "instance_types": [{"name": "s", "speed_factor": 1.0,
        "hourly_rate": 0.2, "billing": "per-second"}],
      "storage_classes": [{"name": "s", "per_gb_month": 0.2}],
      "transfer": {"in_per_gb": 0.0, "out_per_gb": 0.0}
    })";
  }
  const auto duplicate = loadProviderCatalog(dir.string());
  ASSERT_FALSE(duplicate.hasValue());
  EXPECT_NE(duplicate.error().find("good"), std::string::npos)
      << duplicate.error();
  fs::remove_all(dir);
}

TEST(Billing, PerMinuteGranularityRoundsUp) {
  EXPECT_DOUBLE_EQ(billedSeconds(0.0, BillingGranularity::PerMinute), 0.0);
  EXPECT_DOUBLE_EQ(billedSeconds(1.0, BillingGranularity::PerMinute), 60.0);
  EXPECT_DOUBLE_EQ(billedSeconds(60.0, BillingGranularity::PerMinute), 60.0);
  EXPECT_DOUBLE_EQ(billedSeconds(61.0, BillingGranularity::PerMinute), 120.0);
  EXPECT_STREQ(billingGranularityName(BillingGranularity::PerMinute),
               "per-minute");
  BillingGranularity g = BillingGranularity::PerSecond;
  EXPECT_TRUE(parseBillingGranularity("per-minute", g));
  EXPECT_EQ(g, BillingGranularity::PerMinute);
  EXPECT_FALSE(parseBillingGranularity("per-decade", g));
}

}  // namespace
}  // namespace mcsim::cloud
