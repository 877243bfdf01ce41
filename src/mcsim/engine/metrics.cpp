#include "mcsim/engine/metrics.hpp"

#include <stdexcept>

namespace mcsim::engine {

const char* dataModeName(DataMode mode) {
  switch (mode) {
    case DataMode::RemoteIO: return "remote-io";
    case DataMode::Regular: return "regular";
    case DataMode::DynamicCleanup: return "cleanup";
  }
  throw std::logic_error("dataModeName: unknown mode");
}

Expected<DataMode> parseDataMode(std::string_view name) {
  if (name == "remote-io" || name == "remote_io") return DataMode::RemoteIO;
  if (name == "regular") return DataMode::Regular;
  if (name == "cleanup" || name == "dynamic-cleanup" ||
      name == "dynamic_cleanup")
    return DataMode::DynamicCleanup;
  return makeUnexpected("unknown mode '" + std::string(name) +
                        "' (want remote-io|regular|cleanup)");
}

cloud::CostBreakdown computeCost(const ExecutionResult& result,
                                 const cloud::Pricing& pricing,
                                 cloud::CpuBillingMode cpuMode,
                                 cloud::BillingGranularity granularity) {
  cloud::CostBreakdown cost;
  switch (cpuMode) {
    case cloud::CpuBillingMode::Provisioned: {
      // Each of the P provisioned processors is billed for the whole run.
      const double perProcessor =
          cloud::billedSeconds(result.makespanSeconds, granularity);
      cost.cpu = pricing.cpuCost(perProcessor * result.processors);
      break;
    }
    case cloud::CpuBillingMode::Usage:
      cost.cpu = pricing.cpuCost(
          cloud::billedSeconds(result.cpuBusySeconds, granularity));
      break;
  }
  cost.storage = pricing.storageCost(result.storageByteSeconds);
  cost.storageCleanup = cost.storage;
  cost.transferIn = pricing.transferInCost(result.bytesIn);
  cost.transferOut = pricing.transferOutCost(result.bytesOut);
  return cost;
}

}  // namespace mcsim::engine
