// Ablation A10: multi-provider placement (paper §8: "some providers will
// have a cheaper rate for compute resources while others will have a
// cheaper rate for storage ... applications will have more options to
// consider").  Evaluates every (compute, archive) pairing for the 2-degree
// mosaic service at several request volumes.
#include "common.hpp"

#include "mcsim/analysis/placement.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const auto wf = montage::buildMontageWorkflow(2.0);
  const analysis::RequestShape shape = analysis::shapeFromWorkflow(wf);
  const std::vector<cloud::Pricing> providers = {
      cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
      cloud::ProviderCatalog::builtin().pricing("compute-discount"),
      cloud::ProviderCatalog::builtin().pricing("storage-heavy"),
  };

  for (double volume : {1000.0, 18000.0, 100000.0}) {
    char title[128];
    std::snprintf(title, sizeof title,
                  "A10 — placement plans for the 12 TB archive + 2-degree "
                  "service at %.0f requests/month",
                  volume);
    std::cout << sectionBanner(title);
    Table t({"compute", "archive", "co-located", "archive $/mo",
             "cpu $/req", "transfer $/req", "monthly total"});
    const auto plans = analysis::comparePlacements(
        shape, Bytes::fromTB(12.0), volume, providers);
    for (const auto& p : plans) {
      t.addRow({p.computeProvider, p.archiveProvider,
                p.colocated ? "yes" : "no", formatMoney(p.archiveMonthly),
                analysis::moneyCell(p.computePerRequest),
                analysis::moneyCell(p.transferPerRequest),
                formatMoney(p.monthlyTotal)});
    }
    t.print(std::cout);
  }
  std::cout << "\nAt low volume the archive fee dominates (cheap storage "
               "wins); at high volume per-request CPU dominates (cheap "
               "compute wins) and split placement pays cross-provider "
               "transfer on every request — the trade space the paper "
               "predicted applications would have to navigate.\n";
  return 0;
}
