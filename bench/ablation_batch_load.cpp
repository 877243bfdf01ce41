// Ablation A7: request contention on a shared provisioned pool.
//
// Question 2 assumes the provisioned pool is "larger than the needs of any
// single computation" so every request runs at full parallelism.  This
// ablation quantifies what happens when it is not: k concurrent 1-degree
// requests share one pool, and turnaround (batch makespan) plus the
// provisioned bill grow with load while usage-billed cost stays flat.
#include "common.hpp"

#include "mcsim/dag/merge.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const dag::Workflow request = montage::buildMontageWorkflow(1.0);
  const int pool = 64;

  std::cout << sectionBanner(
      "A7 — concurrent 1-degree requests on a shared 64-processor pool");
  Table t({"requests", "batch makespan", "per-request usage $",
           "pool bill (provisioned)", "pool utilization"});
  for (int k : {1, 2, 4, 8, 16, 32}) {
    const dag::Workflow batch = dag::replicateWorkflow(request, k);
    engine::EngineConfig cfg;
    cfg.processors = pool;
    cfg.mode = engine::DataMode::DynamicCleanup;
    const auto r = engine::simulateWorkflow(batch, cfg);
    const auto usage =
        engine::computeCost(r, amazon, cloud::CpuBillingMode::Usage);
    const auto provisioned =
        engine::computeCost(r, amazon, cloud::CpuBillingMode::Provisioned);
    char util[16];
    std::snprintf(util, sizeof util, "%.0f%%", r.utilization() * 100.0);
    t.addRow({std::to_string(k), formatDuration(r.makespanSeconds),
              analysis::moneyCell(usage.totalWithCleanup() /
                                  static_cast<double>(k)),
              formatMoney(provisioned.totalWithCleanup()), util});
  }
  t.print(std::cout);
  std::cout << "\nUsage-billed per-request cost is load-invariant (Fig 10's "
               "premise); the pool's provisioned bill amortizes better as "
               "load fills it — the economics behind the paper's Question-2 "
               "service model.\n";
  return 0;
}
