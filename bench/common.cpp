#include "common.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <cstdlib>
#include <filesystem>

#include "mcsim/util/args.hpp"
#include "mcsim/util/csv.hpp"
#include "mcsim/util/table.hpp"

namespace mcsim::bench {
namespace {

const cloud::Pricing kAmazon = cloud::ProviderCatalog::builtin().pricing("amazon-2008");

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

Args parseArgs(int argc, char** argv, std::set<std::string> values,
               std::set<std::string> flags) {
  const std::string driver = std::filesystem::path(argv[0]).filename();
  Args out;
  try {
    ArgParser args(driver, values, flags);
    args.parse(argc - 1, argv + 1);
    if (values.count("jobs")) out.jobs = args.intOr("jobs", out.jobs);
    if (out.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
    out.csv = flags.count("csv") != 0 && args.hasFlag("csv");
  } catch (const std::invalid_argument& e) {
    std::cerr << driver << ": " << e.what() << "\n";
    std::exit(1);
  }
  return out;
}

runner::JobQueue& sharedQueue(int workers) {
  static runner::JobQueue queue([&] {
    runner::JobQueueOptions options;
    options.workers = workers;
    return options;
  }());
  return queue;
}

std::size_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void printProvisioningFigure(const std::string& figureId, double degrees,
                             const std::vector<analysis::PaperAnchor>& anchors,
                             bool csv, int jobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  const auto points = analysis::provisioningSweep(
      wf, kAmazon, {.queue = &sharedQueue(jobs)});

  std::cout << sectionBanner(figureId + " — " + wf.name() +
                             ": execution cost and time vs provisioned "
                             "processors (Regular mode, provisioned billing, "
                             "Amazon 2008 fees)");
  analysis::provisioningTable(points, anchors).print(std::cout);

  if (csv) {
    std::cout << "\n[csv]\n";
    CsvWriter w(std::cout, {"processors", "makespan_s", "cpu_usd",
                            "storage_usd", "storage_cleanup_usd",
                            "transfer_usd", "total_usd", "utilization"});
    for (const auto& p : points)
      w.writeRow({std::to_string(p.processors), num(p.makespanSeconds),
                  num(p.cpuCost.value()), num(p.storageCost.value()),
                  num(p.storageCleanupCost.value()),
                  num(p.transferCost.value()), num(p.totalCost.value()),
                  num(p.utilization)});
  }
}

void printDataModeFigure(const std::string& figureId, double degrees,
                         bool csv, int jobs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  const auto rows =
      analysis::dataModeComparison(wf, kAmazon, {.queue = &sharedQueue(jobs)});

  std::cout << sectionBanner(
      figureId + " — " + wf.name() +
      ": data management metrics across execution modes (full parallelism, "
      "usage billing)");
  analysis::dataModeTable(rows).print(std::cout);

  if (csv) {
    std::cout << "\n[csv]\n";
    CsvWriter w(std::cout,
                {"mode", "makespan_s", "storage_gbh", "bytes_in", "bytes_out",
                 "storage_usd", "in_usd", "out_usd", "dm_usd", "cpu_usd",
                 "total_usd"});
    for (const auto& r : rows)
      w.writeRow({engine::dataModeName(r.mode), num(r.makespanSeconds),
                  num(r.storageGBHours), num(r.bytesIn.value()),
                  num(r.bytesOut.value()), num(r.storageCost.value()),
                  num(r.transferInCost.value()), num(r.transferOutCost.value()),
                  num(r.dataManagementCost().value()), num(r.cpuCost.value()),
                  num(r.totalCost().value())});
  }
}

}  // namespace mcsim::bench
