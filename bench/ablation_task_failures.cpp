// Ablation A9: unreliable resources (paper §8: "The reliability and
// availability of the storage and compute resources are also an important
// concern").  Injects per-task transient failure rates and measures the
// retry tax on makespan and on both billing schemes.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);

  std::cout << sectionBanner(
      "A9 — per-task failure rate vs cost, Montage 1 degree, 16 processors "
      "(failed attempts are re-executed and billed)");
  Table t({"failure rate", "retries", "makespan", "usage cpu $",
           "provisioned total $"});
  for (double rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    engine::EngineConfig cfg;
    cfg.processors = 16;
    cfg.mode = engine::DataMode::DynamicCleanup;
    cfg.faults.legacy.probability = rate;
    cfg.faults.legacy.seed = 2026;
    const auto r = engine::simulateWorkflow(wf, cfg);
    const auto usage =
        engine::computeCost(r, amazon, cloud::CpuBillingMode::Usage);
    const auto provisioned =
        engine::computeCost(r, amazon, cloud::CpuBillingMode::Provisioned);
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.0f%%", rate * 100.0);
    t.addRow({pct, std::to_string(r.taskRetries),
              formatDuration(r.makespanSeconds),
              analysis::moneyCell(usage.cpu),
              analysis::moneyCell(provisioned.totalWithCleanup())});
  }
  t.print(std::cout);
  std::cout << "\nThe expected retry tax is rate/(1-rate) of the CPU bill "
               "under usage billing; under provisioned billing the whole "
               "pool idles through every retry, so the tax is steeper.\n";
  return 0;
}
