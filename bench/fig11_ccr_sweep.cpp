// Reproduces Figure 11: execution costs of the Montage 1-degree workflow as
// the CCR is artificially scaled (8 provisioned processors, the paper's
// "reasonable compromise between execution cost and execution time").
#include "common.hpp"

#include "mcsim/util/csv.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const bench::Args args = bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const std::vector<double> ccrs = {0.053, 0.1, 0.2, 0.4, 0.8,
                                    1.6,   3.2, 6.4, 12.8};
  const auto points = analysis::ccrSweep(
      wf, cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
      {.ccrTargets = ccrs, .processors = 8,
       .queue = &bench::sharedQueue(args.jobs)});
  std::cout << sectionBanner(
      "Fig 11 — Montage 1-degree execution costs vs CCR (8 processors; "
      "file sizes scaled by CCRd/CCRr as in the paper)");
  analysis::ccrTable(points).print(std::cout);

  if (args.csv) {
    std::cout << "\n[csv]\n";
    CsvWriter w(std::cout, {"ccr", "makespan_s", "cpu_usd", "storage_usd",
                            "storage_cleanup_usd", "transfer_usd",
                            "total_usd"});
    for (const auto& p : points) {
      char b[7][64];
      std::snprintf(b[0], 64, "%.6g", p.ccr);
      std::snprintf(b[1], 64, "%.6g", p.makespanSeconds);
      std::snprintf(b[2], 64, "%.6g", p.cpuCost.value());
      std::snprintf(b[3], 64, "%.6g", p.storageCost.value());
      std::snprintf(b[4], 64, "%.6g", p.storageCleanupCost.value());
      std::snprintf(b[5], 64, "%.6g", p.transferCost.value());
      std::snprintf(b[6], 64, "%.6g", p.totalCost.value());
      w.writeRow({b[0], b[1], b[2], b[3], b[4], b[5], b[6]});
    }
  }
  return 0;
}
