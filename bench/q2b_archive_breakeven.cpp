// Reproduces Question 2b: the economics of hosting the 12 TB 2MASS archive
// in the cloud, with the per-request costs taken from the simulated
// 2-degree workflow (paper anchors: $1,800/month, $2.12 vs $2.22 per
// mosaic, 18,000 mosaics/month break-even, $1,200 initial upload).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const dag::Workflow wf = montage::buildMontageWorkflow(2.0);
  const auto rows = analysis::dataModeComparison(
      wf, amazon,
      {.queue = &bench::sharedQueue(bench::parseArgs(argc, argv, {"jobs"}, {}).jobs)});
  const auto& regular = rows[1];

  const Money onDemand = regular.totalCost();
  const Money preStaged = onDemand - regular.transferInCost;
  const auto economics = analysis::archiveBreakEven(
      Bytes::fromTB(12.0), preStaged, onDemand, amazon);

  std::cout << sectionBanner(
      "Q2b — 2MASS archive hosting break-even (simulated 2-degree request "
      "costs; paper: $1,800/month, $2.12 vs $2.22, 18,000 requests/month)");
  analysis::archiveEconomicsTable(economics).print(std::cout);
  return 0;
}
