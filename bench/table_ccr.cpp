// Reproduces the §6 CCR table: the communication-to-computation ratio of
// the three Montage workflows at the reference 10 Mbps bandwidth.
#include "common.hpp"

#include "mcsim/dag/algorithms.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  std::cout << sectionBanner(
      "CCR table — CCR of the Montage workflows at B = 10 Mbps "
      "(paper: 0.053 / 0.053 / 0.045)");
  Table t({"workflow", "tasks", "levels", "max parallelism", "total cpu",
           "total data", "CCR"});
  for (double deg : {1.0, 2.0, 4.0}) {
    const dag::Workflow wf = montage::buildMontageWorkflow(deg);
    char ccr[32];
    std::snprintf(ccr, sizeof ccr, "%.3f",
                  wf.ccr(montage::kReferenceBandwidthBytesPerSec));
    t.addRow({wf.name(), std::to_string(wf.taskCount()),
              std::to_string(wf.levelCount()),
              std::to_string(dag::maxParallelism(wf)),
              formatDuration(wf.totalRuntimeSeconds()),
              formatBytes(wf.totalFileBytes()), ccr});
  }
  t.print(std::cout);
  return 0;
}
