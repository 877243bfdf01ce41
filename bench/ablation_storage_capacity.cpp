// Ablation A8: storage-constrained execution — the scenario that motivates
// dynamic cleanup in the first place (paper §3 cites "Scheduling
// Data-Intensive Workflows onto Storage-Constrained Distributed
// Resources").  Sweeps the storage cap on the 1-degree workflow and shows
// the feasibility frontier and slowdown per data-management mode.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);

  // Unlimited-capacity peaks frame the sweep.
  engine::EngineConfig base;
  base.processors = 16;
  base.mode = engine::DataMode::Regular;
  const auto regularPeak =
      engine::simulateWorkflow(wf, base).peakStorageBytes;
  base.mode = engine::DataMode::DynamicCleanup;
  const auto cleanupRun = engine::simulateWorkflow(wf, base);

  std::cout << sectionBanner(
      "A8 — storage capacity vs feasibility and makespan, Montage 1 degree, "
      "16 processors");
  std::cout << "unconstrained peaks: regular "
            << formatBytes(regularPeak) << ", cleanup "
            << formatBytes(cleanupRun.peakStorageBytes) << "\n\n";

  Table t({"capacity", "mode", "outcome", "makespan", "tasks blocked"});
  for (double gb : {1.5, 1.0, 0.7, 0.5, 0.4}) {
    for (engine::DataMode mode :
         {engine::DataMode::Regular, engine::DataMode::DynamicCleanup}) {
      engine::EngineConfig cfg = base;
      cfg.mode = mode;
      cfg.storageCapacityBytes = gb * 1e9;
      std::string outcome, makespan = "-", blocked = "-";
      try {
        const auto r = engine::simulateWorkflow(wf, cfg);
        outcome = "completes";
        makespan = formatDuration(r.makespanSeconds);
        blocked = std::to_string(r.tasksEverBlocked);
      } catch (const std::runtime_error&) {
        outcome = "INFEASIBLE";
      }
      char cap[32];
      std::snprintf(cap, sizeof cap, "%.1f GB", gb);
      t.addRow({cap, engine::dataModeName(mode), outcome, makespan, blocked});
    }
  }
  t.print(std::cout);
  std::cout << "\nCleanup keeps the workflow feasible well below regular "
               "mode's footprint, trading makespan (blocked tasks wait for "
               "space) for feasibility — the paper's ~50% footprint "
               "reduction claim in action.\n";
  return 0;
}
