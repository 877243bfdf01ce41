// Ablation A5: dispatch policy.  FIFO (the paper's behaviour) vs
// critical-path-first priority across the provisioning ladder, on Montage
// and on an adversarial long-chain workload where FIFO is provably bad.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  bench::parseArgs(argc, argv, {}, {});
  const dag::Workflow montage1 = montage::buildMontageWorkflow(1.0);

  std::cout << sectionBanner(
      "A5 — FIFO vs critical-path-first dispatch, Montage 1 degree");
  Table t({"procs", "fifo makespan", "cp-first makespan", "delta"});
  for (int procs : {2, 4, 8, 16, 32}) {
    engine::EngineConfig cfg;
    cfg.processors = procs;
    cfg.scheduler = engine::SchedulerPolicy::Fifo;
    const double fifo =
        engine::simulateWorkflow(montage1, cfg).makespanSeconds;
    cfg.scheduler = engine::SchedulerPolicy::CriticalPathFirst;
    const double cpf =
        engine::simulateWorkflow(montage1, cfg).makespanSeconds;
    char delta[32];
    std::snprintf(delta, sizeof delta, "%+.1f%%", 100.0 * (cpf - fifo) / fifo);
    t.addRow({std::to_string(procs), formatDuration(fifo),
              formatDuration(cpf), delta});
  }
  t.print(std::cout);
  std::cout << "\nMontage's level structure leaves little room for priority "
               "scheduling -- which is why the paper's FIFO engine is "
               "adequate.  Chain-heavy DAGs are a different story:\n";

  // Adversarial workload: one external file fans out to many short sinks
  // plus the 1-second head of a long chain.
  dag::Workflow adv("chain-heavy");
  const dag::FileId x = adv.addFile("x", Bytes::fromMB(1.0));
  for (int i = 0; i < 16; ++i) {
    const dag::TaskId s = adv.addTask("s" + std::to_string(i), "short", 60.0);
    adv.addInput(s, x);
    adv.addOutput(s, adv.addFile("so" + std::to_string(i), Bytes::fromMB(1.0)));
  }
  dag::FileId prev = adv.addFile("c0", Bytes::fromMB(1.0));
  {
    const dag::TaskId head = adv.addTask("head", "chain", 1.0);
    adv.addInput(head, x);
    adv.addOutput(head, prev);
  }
  for (int i = 1; i <= 8; ++i) {
    const dag::TaskId link = adv.addTask("c" + std::to_string(i), "chain", 120.0);
    adv.addInput(link, prev);
    prev = adv.addFile("cf" + std::to_string(i), Bytes::fromMB(1.0));
    adv.addOutput(link, prev);
  }
  adv.finalize();

  Table t2({"procs", "fifo makespan", "cp-first makespan", "delta"});
  for (int procs : {2, 4, 8}) {
    engine::EngineConfig cfg;
    cfg.processors = procs;
    cfg.scheduler = engine::SchedulerPolicy::Fifo;
    const double fifo = engine::simulateWorkflow(adv, cfg).makespanSeconds;
    cfg.scheduler = engine::SchedulerPolicy::CriticalPathFirst;
    const double cpf = engine::simulateWorkflow(adv, cfg).makespanSeconds;
    char delta[32];
    std::snprintf(delta, sizeof delta, "%+.1f%%", 100.0 * (cpf - fifo) / fifo);
    t2.addRow({std::to_string(procs), formatDuration(fifo),
               formatDuration(cpf), delta});
  }
  t2.print(std::cout);
  return 0;
}
