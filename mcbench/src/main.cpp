// mcbench: the mcsim end-to-end benchmark driver.
//
//   mcbench --workload paper_sweep|survey_1m|serve_mixed --seed N
//           --seconds S --trace 0|1
//
// Runs from the repository root (it reads config/providers/ and puts the
// serve socket under .bench_build/).  Prints progress to stderr and, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones; BENCHMARK.json names both sets.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace mcbench;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

template <class F>
double medianOver(const std::vector<LayerTimes>& ops, F&& field) {
  std::vector<double> v;
  for (const LayerTimes& t : ops) v.push_back(field(t));
  return median(std::move(v));
}

struct Metric {
  double value;
  const char* unit;
};

std::map<std::string, Metric> endToEnd(const Report& r) {
  return {
      {"latency_ms", {median(r.opSeconds) * 1e3, "ms"}},
      {"tasks_per_s",
       {static_cast<double>(r.tasksDelivered) / r.windowSeconds, "1/s"}},
      {"setup_s", {median(r.setupSeconds), "s"}},
  };
}

std::map<std::string, Metric> perLayer(const Report& r) {
  std::vector<double> other;
  for (std::size_t i = 0; i < r.opLayers.size() && i < r.opSeconds.size(); ++i)
    other.push_back(r.opSeconds[i] - r.opLayers[i].total());
  double engineSeconds = 0.0;
  for (const LayerTimes& t : r.opLayers) engineSeconds += t.engine;
  const double ops = static_cast<double>(std::max<std::size_t>(1, r.opLayers.size()));
  const auto& l = r.opLayers;
  return {
      {"dag_ms", {medianOver(l, [](auto& t) { return t.dag; }) * 1e3, "ms"}},
      {"memo_ms", {medianOver(l, [](auto& t) { return t.memo; }) * 1e3, "ms"}},
      {"engine_ms",
       {medianOver(l, [](auto& t) { return t.engine; }) * 1e3, "ms"}},
      {"price_ms",
       {medianOver(l, [](auto& t) { return t.price; }) * 1e3, "ms"}},
      {"render_ms",
       {medianOver(l, [](auto& t) { return t.render; }) * 1e3, "ms"}},
      {"other_ms", {median(other) * 1e3, "ms"}},
      {"cache_hit_rate",
       {r.cacheLookups ? static_cast<double>(r.cacheHits) /
                             static_cast<double>(r.cacheLookups)
                       : 0.0,
        "ratio"}},
      {"engine_runs", {static_cast<double>(r.engineRuns) / ops, "count"}},
      {"engine_tasks_per_s",
       {engineSeconds > 0.0 ? static_cast<double>(r.engineTasks) / engineSeconds
                            : 0.0,
        "1/s"}},
  };
}

int usage(const char* why) {
  std::cerr << "mcbench: " << why
            << "\nusage: mcbench --workload paper_sweep|survey_1m|serve_mixed"
               " --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else return usage(("unknown flag " + flag).c_str());
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"paper_sweep", runPaperSweep},
      {"survey_1m", runSurvey},
      {"serve_mixed", runServeMixed},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown --workload");

  Report report;
  try {
    report = it->second(options);
  } catch (const std::exception& e) {
    std::cerr << "mcbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
  for (const std::string& e : report.errors)
    std::cerr << "mcbench: check failed: " << e << "\n";

  const auto metrics = options.trace ? perLayer(report) : endToEnd(report);
  const std::size_t attempted = report.opSeconds.size() + report.failed;
  std::cerr << "mcbench: " << options.workload << ": " << attempted
            << " operations in " << report.windowSeconds
            << " s, median latency " << median(report.opSeconds) << " s\n";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {",
              report.errors.empty() && attempted > 0 ? "true" : "false",
              attempted, static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
