// Reproduces Figure 10: CPU cost vs aggregated data-management (DM) cost
// for all three Montage workflows under each execution mode.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const int jobs = bench::parseArgs(argc, argv, {"jobs"}, {}).jobs;
  std::vector<analysis::CpuVsDmRow> rows;
  for (double deg : {1.0, 2.0, 4.0}) {
    const dag::Workflow wf = montage::buildMontageWorkflow(deg);
    for (const auto& m :
         analysis::dataModeComparison(
           wf, amazon, {.queue = &bench::sharedQueue(jobs)})) {
      analysis::CpuVsDmRow row;
      row.workflow = wf.name();
      row.mode = m.mode;
      row.cpuCost = m.cpuCost;
      row.dmCost = m.dataManagementCost();
      row.totalCost = m.totalCost();
      rows.push_back(row);
    }
  }
  std::cout << sectionBanner(
      "Fig 10 — CPU vs data management cost, all workflows x modes "
      "(paper CPU anchors: $0.56 / $2.03 / $8.40; regular totals $2.22 and "
      "$8.88 for 2 and 4 degrees)");
  analysis::cpuVsDmTable(rows).print(std::cout);
  return 0;
}
