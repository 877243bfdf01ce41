// Ablation A2: VM startup/teardown overhead (paper §8: "the startup cost of
// the application on the cloud, which is composed of launching and
// configuring a virtual machine and its teardown ... an additional constant
// cost").  2008-era EC2 instance boot took on the order of minutes.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  std::cout << sectionBanner(
      "A2 — VM provisioning overhead: total cost and makespan vs startup+"
      "teardown time, Montage 1 degree (provisioned billing pays the "
      "overhead on every processor)");
  Table t({"procs", "overhead", "makespan", "total cost", "vs zero-overhead"});
  for (int procs : {1, 16, 128}) {
    Money base;
    for (double overheadMin : {0.0, 2.0, 5.0, 15.0}) {
      engine::EngineConfig cfg;
      cfg.vmStartupSeconds = overheadMin * 60.0 / 2.0;
      cfg.vmTeardownSeconds = overheadMin * 60.0 / 2.0;
      const auto pts = analysis::provisioningSweep(
          wf, amazon, {.processorCounts = {procs}, .base = cfg});
      if (overheadMin == 0.0) base = pts[0].totalCost;
      char delta[32];
      std::snprintf(delta, sizeof delta, "+%.1f%%",
                    100.0 * (pts[0].totalCost - base).value() / base.value());
      t.addRow({std::to_string(procs),
                overheadMin == 0.0 ? "none"
                                   : formatDuration(overheadMin * 60.0),
                formatDuration(pts[0].makespanSeconds),
                analysis::moneyCell(pts[0].totalCost), delta});
    }
  }
  t.print(std::cout);
  std::cout << "\nThe overhead is negligible for long serial runs but "
               "dominates wide provisioning: at 128 processors a 15-minute "
               "boot+teardown nearly doubles the bill.\n";
  return 0;
}
