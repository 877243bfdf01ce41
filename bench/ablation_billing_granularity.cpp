// Ablation A1: what the paper's per-second normalization hides.  Real 2008
// EC2 billed whole instance-hours; this compares the idealized per-second
// CPU cost against hour-rounded billing across the provisioning ladder.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const auto ladder = analysis::defaultProcessorLadder();
  const int jobs = bench::parseArgs(argc, argv, {"jobs"}, {}).jobs;
  const auto perSecond = analysis::provisioningSweep(
      wf, amazon,
      {.processorCounts = ladder,
       .granularity = cloud::BillingGranularity::PerSecond,
       .queue = &bench::sharedQueue(jobs)});
  const auto perHour = analysis::provisioningSweep(
      wf, amazon,
      {.processorCounts = ladder,
       .granularity = cloud::BillingGranularity::PerHour,
       .queue = &bench::sharedQueue(jobs)});

  std::cout << sectionBanner(
      "A1 — billing granularity: per-second (paper's idealization) vs "
      "per-instance-hour CPU billing, Montage 1 degree");
  Table t({"procs", "makespan", "cpu $/s-billing", "cpu $/h-billing",
           "overpayment"});
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const double over = perHour[i].cpuCost.value() -
                        perSecond[i].cpuCost.value();
    char pct[32];
    std::snprintf(pct, sizeof pct, "+%.0f%%",
                  100.0 * over / perSecond[i].cpuCost.value());
    t.addRow({std::to_string(ladder[i]),
              formatDuration(perSecond[i].makespanSeconds),
              analysis::moneyCell(perSecond[i].cpuCost),
              analysis::moneyCell(perHour[i].cpuCost), pct});
  }
  t.print(std::cout);
  std::cout << "\nHour-rounding penalizes wide short runs the most: 128 "
               "processors each bill a full hour for minutes of work.\n";
  return 0;
}
