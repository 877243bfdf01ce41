// Figure 7 (top), literally: "a curve that shows the amount of storage used
// at the resource with the passage of time" (§5), rendered as a text
// sparkline per data-management mode for the Montage 1-degree workflow.
// The GB-hours each mode reports in Fig 7 are the areas under these curves.
#include "common.hpp"

#include <algorithm>
#include <vector>

namespace {

using namespace mcsim;

/// Sample the step curve at `buckets` uniform points over the makespan.
std::vector<double> sample(const UsageCurve& curve, double makespan,
                           std::size_t buckets) {
  std::vector<double> levels(buckets, 0.0);
  const auto events = curve.sortedEvents();
  double level = 0.0;
  std::size_t e = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double t =
        makespan * static_cast<double>(b + 1) / static_cast<double>(buckets);
    while (e < events.size() && events[e].time <= t) level += events[e++].delta;
    levels[b] = level;
  }
  return levels;
}

std::string sparkline(const std::vector<double>& levels, double peak) {
  static const char* kBars[] = {" ", ".", ":", "-", "=", "+", "*", "#", "@"};
  std::string out;
  for (double v : levels) {
    const int idx = peak > 0.0
                        ? static_cast<int>(v / peak * 8.0 + 0.5)
                        : 0;
    out += kBars[std::clamp(idx, 0, 8)];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::bench::parseArgs(argc, argv, {}, {});
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);

  std::cout << sectionBanner(
      "Fig 7 (top) — storage used over time, Montage 1 degree, full "
      "parallelism (sparklines share one scale; area = the GB-hours bar)");

  // Common scale: regular mode's peak.
  double sharedPeak = 0.0;
  struct Row {
    std::string mode;
    std::vector<double> levels;
    double gbHours;
    double peakGB;
  };
  std::vector<Row> rows;
  for (engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    engine::EngineConfig cfg;
    cfg.mode = mode;
    cfg.processors = 128;
    const auto r = engine::simulateWorkflow(wf, cfg);
    Row row;
    row.mode = engine::dataModeName(mode);
    row.levels = sample(r.storageCurve, r.makespanSeconds, 64);
    row.gbHours = r.storageGBHours();
    row.peakGB = r.peakStorageBytes.gb();
    sharedPeak = std::max(sharedPeak, r.peakStorageBytes.value());
    rows.push_back(std::move(row));
  }

  for (const Row& row : rows) {
    char label[64];
    std::snprintf(label, sizeof label, "%-10s %5.3f GB-h, peak %.2f GB",
                  row.mode.c_str(), row.gbHours, row.peakGB);
    std::cout << "  |" << sparkline(row.levels, sharedPeak) << "|  " << label
              << "\n";
  }
  std::cout << "\nRegular climbs monotonically and holds everything to the "
               "end; cleanup's sawtooth releases files at last use; remote "
               "I/O shows only transient per-task working sets.\n";
  return 0;
}
