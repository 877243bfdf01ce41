// Custom workflows through the DAX pipeline: write a workflow to XML, load
// it back (as the paper's simulator loaded mDAG output), compare the three
// data-management modes, and render an execution Gantt chart.
//
//   ./examples/custom_workflow_dax [path-to-dax]
// With no argument, a demo genomics-style pipeline is generated first.
#include <fstream>
#include <iostream>

#include "mcsim/mcsim.hpp"

namespace {

mcsim::dag::Workflow makeDemoPipeline() {
  using namespace mcsim;
  // An alignment-then-variant-call shaped pipeline: one big reference, many
  // sample shards, a joint-call fan-in.
  dag::Workflow wf("variant-calling");
  const dag::FileId reference = wf.addFile("reference.fa", Bytes::fromGB(3.0));
  const dag::TaskId merge = wf.addTask("joint_call", "joint", 1800.0);
  for (int s = 0; s < 12; ++s) {
    const dag::FileId reads =
        wf.addFile("sample" + std::to_string(s) + ".fastq", Bytes::fromGB(0.8));
    const dag::TaskId align =
        wf.addTask("align_" + std::to_string(s), "align", 1200.0);
    wf.addInput(align, reads);
    wf.addInput(align, reference);
    const dag::FileId bam =
        wf.addFile("sample" + std::to_string(s) + ".bam", Bytes::fromGB(1.1));
    wf.addOutput(align, bam);
    const dag::TaskId call =
        wf.addTask("call_" + std::to_string(s), "call", 700.0);
    wf.addInput(call, bam);
    const dag::FileId gvcf =
        wf.addFile("sample" + std::to_string(s) + ".gvcf", Bytes::fromMB(200.0));
    wf.addOutput(call, gvcf);
    wf.addInput(merge, gvcf);
  }
  const dag::FileId vcf = wf.addFile("cohort.vcf", Bytes::fromGB(1.5));
  wf.addOutput(merge, vcf);
  wf.finalize();
  return wf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcsim;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "demo_pipeline.dax";
    dag::writeDaxFile(makeDemoPipeline(), path);
    std::cout << "no DAX given; wrote demo pipeline to " << path << "\n";
  }

  const dag::Workflow wf = dag::readDaxFile(path);
  std::cout << "loaded " << wf.name() << ": " << wf.taskCount() << " tasks, "
            << wf.fileCount() << " files, " << wf.levelCount() << " levels, "
            << formatBytes(wf.totalFileBytes()) << " of data\n";

  const cloud::Pricing amazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  std::cout << sectionBanner("data-management mode comparison (paper §6 Q2a)");
  analysis::dataModeTable(
      analysis::dataModeComparison(wf, amazon, analysis::DataModeComparisonConfig{}))
      .print(std::cout);

  // Trace a cleanup-mode run and show where the time goes.
  obs::TraceStore trace;
  obs::SpanSink spans(trace);
  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::DynamicCleanup;
  cfg.processors = 8;
  cfg.observer = &spans;
  const auto result = engine::simulateWorkflow(wf, cfg);
  std::cout << sectionBanner("execution timeline, cleanup mode, 8 processors");
  engine::printGantt(std::cout, wf, trace, 30, 64);
  std::cout << "\n" << engine::summarize(wf, result) << "\n";
  return 0;
}
