// Reproduces Question 3: the cost of mosaicking the entire sky (3,900
// four-degree plates; paper: $34,632 on demand, $34,145 pre-staged) and the
// archive-or-recompute break-even for each mosaic size (paper: 21.52 /
// 24.25 / 25.12 months).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  const int jobs = bench::parseArgs(argc, argv, {"jobs"}, {}).jobs;

  // -- whole-sky campaign -----------------------------------------------------
  const dag::Workflow wf4 = montage::buildMontageWorkflow(4.0);
  const auto rows4 = analysis::dataModeComparison(
      wf4, amazon, {.queue = &bench::sharedQueue(jobs)});
  const Money onDemand = rows4[1].totalCost();
  const Money preStaged = onDemand - rows4[1].transferInCost;
  // 3,900 plates falls out of the sky tiling at the paper's overlap.
  const auto sky =
      analysis::skyCampaign(analysis::skyPlateCount(4.0), onDemand, preStaged);

  std::cout << sectionBanner(
      "Q3 — whole-sky mosaic campaign, 3,900 four-degree plates "
      "(paper: $34,632 on demand; $34,145 with data pre-staged)");
  Table t({"plan", "per plate", "total"});
  t.addRow({"inputs staged from archive", analysis::moneyCell(sky.perPlateOnDemand),
            formatMoney(sky.totalOnDemand)});
  t.addRow({"inputs pre-staged in cloud", analysis::moneyCell(sky.perPlatePreStaged),
            formatMoney(sky.totalPreStaged)});
  t.print(std::cout);

  // Alternative tiling mentioned in the paper.
  const auto sixDegreePlan = analysis::skyCampaign(
      analysis::skyPlateCount(6.0), onDemand, preStaged);
  std::cout << "\n(alternative tiling: " << sixDegreePlan.plateCount
            << " six-degree plates; per-plate costs would come from the "
               "6-degree workflow — see examples/sky_survey_service)\n";

  // -- archive or recompute ----------------------------------------------------
  std::vector<analysis::ArchivalDecision> decisions;
  std::vector<std::string> labels;
  for (double deg : {1.0, 2.0, 4.0}) {
    const auto params = montage::paramsForDegrees(deg);
    const dag::Workflow wf = montage::buildMontageWorkflow(params);
    const auto rows = analysis::dataModeComparison(
        wf, amazon, {.queue = &bench::sharedQueue(jobs)});
    decisions.push_back(analysis::mosaicArchivalDecision(
        rows[1].cpuCost, params.mosaicBytes, amazon));
    labels.push_back(wf.name());
  }
  std::cout << sectionBanner(
      "Q3 — store the computed mosaic or recompute on demand "
      "(paper: 21.52 / 24.25 / 25.12 months)");
  analysis::archivalDecisionTable(decisions, labels).print(std::cout);
  std::cout << "\nVerdict: a mosaic likely to be requested again within ~2 "
               "years is cheaper to archive than to recompute.\n";
  return 0;
}
