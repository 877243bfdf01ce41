// Multi-cloud broker — the paper's closing prediction as a tool.  "As the
// field matures, we expect to see a more diverse selection of fees...
// applications will have more options to consider and more execution and
// provisioning plans to develop."
//
// This walkthrough drives the provider catalog end to end:
//   1. inspect the market (every catalog profile, multi-generation SKUs),
//   2. run the placement optimizer over provider x instance x storage
//      class x data mode x data placement — spot SKUs and provider-hosted
//      archives included — and read the cost-makespan Pareto frontier,
//   3. re-rank the classic monthly-service plans (comparePlacements) with
//      fee views pulled from the same catalog.
//
//   ./examples/multi_cloud_broker [--degrees D] [--volume requests-per-month]
#include <iostream>
#include <stdexcept>

#include "mcsim/mcsim.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;

  double degrees = 0.0;
  double volume = 0.0;
  try {
    ArgParser args("multi_cloud_broker", {"degrees", "volume"}, {});
    args.parse(argc - 1, argv + 1);
    degrees = args.numberOr("degrees", 2.0);
    volume = args.numberOr("volume", 18000.0);
  } catch (const std::invalid_argument& e) {
    std::cerr << "multi_cloud_broker: " << e.what() << "\n";
    return 1;
  }

  // -- 1. the market ---------------------------------------------------------
  const cloud::ProviderCatalog& catalog = cloud::ProviderCatalog::builtin();
  std::cout << "provider market (" << catalog.size() << " profiles):\n";
  Table fees({"provider", "instances", "fastest", "storage tiers",
              "cheapest $/GB-month"});
  for (const auto& [name, profile] : catalog.profiles()) {
    const cloud::InstanceType* fastest = &profile.defaultInstance();
    const cloud::StorageClass* cheapest = &profile.defaultStorageClass();
    for (const auto& sku : profile.instanceTypes)
      if (sku.speedFactor > fastest->speedFactor) fastest = &sku;
    for (const auto& cls : profile.storageClasses)
      if (cls.perGBMonth < cheapest->perGBMonth) cheapest = &cls;
    char rate[32];
    std::snprintf(rate, sizeof rate, "$%.4g", cheapest->perGBMonth.value());
    fees.addRow({name, std::to_string(profile.instanceTypes.size()),
                 fastest->name, std::to_string(profile.storageClasses.size()),
                 rate});
  }
  fees.print(std::cout);

  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  const analysis::RequestShape shape = analysis::shapeFromWorkflow(wf);
  std::cout << "\nrequest shape from " << wf.name() << ": "
            << formatDuration(shape.cpuSeconds) << " CPU, "
            << formatBytes(shape.inputBytes) << " in, "
            << formatBytes(shape.productBytes) << " product\n";

  // -- 2. the optimizer ------------------------------------------------------
  // The full search: every provider, every SKU (spot variants included),
  // every storage tier, all three data modes, inputs optionally hosted on
  // provider storage with their holding cost amortized over the request
  // volume.  One simulation per distinct (mode, instance speed); every
  // placement priced analytically from those runs.
  analysis::OptimizeConfig config;
  config.useSpot = true;
  config.sweepArchiveHosting = true;
  config.requestsPerMonth = volume;
  const analysis::OptimizeResult result =
      analysis::optimizePlacement(wf, catalog, config);

  std::cout << sectionBanner("placement optimizer: " +
                             std::to_string(result.candidates) +
                             " candidates from " +
                             std::to_string(result.simulations) +
                             " simulations");
  analysis::optimizeTable(result, 10).print(std::cout);
  std::cout << "\nrecommendation: "
            << analysis::describeCandidate(result.best()) << "\n";

  std::cout << "\ncost-makespan frontier (pay more only to finish faster):\n";
  for (const analysis::PlacementCandidate& c : result.ranked) {
    if (!c.onFrontier) continue;
    std::cout << "  " << formatMoney(c.cost.total()) << "  "
              << formatDuration(c.makespanSeconds) << "  "
              << c.assignment.computeProvider << "/"
              << c.assignment.instanceType
              << (c.assignment.spot ? " (spot)" : "") << "\n";
  }

  // -- 3. the monthly-service view ------------------------------------------
  // The original comparePlacements arithmetic, now fed from the catalog:
  // a 12 TB archive served at `volume` requests/month, every (compute,
  // archive) provider pairing.
  std::vector<cloud::Pricing> market;
  for (const std::string& name : catalog.names())
    market.push_back(catalog.pricing(name));
  const auto plans = analysis::comparePlacements(shape, Bytes::fromTB(12.0),
                                                 volume, market);
  std::cout << sectionBanner("monthly service plans, cheapest first (" +
                             std::to_string(static_cast<long>(volume)) +
                             " requests/month, 12 TB archive)");
  Table t({"#", "compute", "archive", "monthly total", "vs best"});
  const std::size_t shown = std::min<std::size_t>(plans.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    char delta[32];
    std::snprintf(delta, sizeof delta, "+%.1f%%",
                  100.0 * (plans[i].monthlyTotal - plans[0].monthlyTotal)
                              .value() /
                      plans[0].monthlyTotal.value());
    t.addRow({std::to_string(i + 1), plans[i].computeProvider,
              plans[i].archiveProvider, formatMoney(plans[i].monthlyTotal),
              i == 0 ? "best" : delta});
  }
  t.print(std::cout);

  const auto& best = plans[0];
  std::cout << "\nRecommendation: compute on " << best.computeProvider
            << ", archive on " << best.archiveProvider
            << (best.colocated ? " (co-located: intra-provider data access "
                                 "is free, as with EC2/S3)."
                               : " (split placement: the archive savings "
                                 "outweigh per-request cross-provider "
                                 "transfer).")
            << "\n";
  return 0;
}
