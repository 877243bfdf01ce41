// Reproduces Figure 6 plus §6.1's service arithmetic: the Montage 4-degree
// provisioning sweep and the cost of serving 500 mosaics at three
// provisioning levels.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const bench::Args args = bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  bench::printProvisioningFigure(
      "Fig 6", 4.0,
      {{1, "paper: ~$9 total, 85 h"},
       {16, "paper: $9.25, ~5.5 h"},
       {128, "paper: ~$14, ~1 h"}},
      args.csv, args.jobs);

  // "providing 500 4-degree square mosaics to astronomers would cost $4,500
  // using 1 processor versus $7,000 using 128 processors ... 16 processors
  // ... a total cost of 500 mosaics would be $4,625."
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  const auto points = analysis::provisioningSweep(
      wf, cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
      {.processorCounts = {1, 16, 128},
       .queue = &bench::sharedQueue(args.jobs)});
  std::cout << sectionBanner(
      "Q1 service — 500 four-degree mosaics at fixed provisioning");
  Table t({"procs", "per-mosaic", "turnaround", "500 mosaics",
           "paper anchor"});
  const char* anchors[] = {"paper: $4,500", "paper: $4,625", "paper: $7,000"};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    t.addRow({std::to_string(p.processors),
              analysis::moneyCell(p.totalCost),
              formatDuration(p.makespanSeconds),
              formatMoney(p.totalCost * 500.0), anchors[i]});
  }
  t.print(std::cout);
  return 0;
}
