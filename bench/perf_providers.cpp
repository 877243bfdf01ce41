// perf_providers: provider catalog + placement optimizer benchmark.
//
// Three measurements, written to BENCH_providers.json:
//   1. JSON codec throughput: every builtin profile encoded once, then
//      parse+decode+validate in a loop (profiles/second).
//   2. Optimizer wall time over the full catalog (spot + archive hosting)
//      cold, then again against a warm ScenarioMemoCache — the rerun prices
//      every candidate without a single new simulation.
//   3. Identity: with the default placement, the optimizer's per-mode
//      totals must agree with dataModeComparison.  Exits nonzero on
//      divergence, like the other perf benches.
//
//   ./bench/perf_providers [--degrees 1] [--jobs N] [--repeat 3]
//                          [--codec-iters 2000] [--out BENCH_providers.json]
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcsim/analysis/placement.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/util/json.hpp"

namespace {

using namespace mcsim;
using Clock = std::chrono::steady_clock;

double argNumber(int argc, char** argv, const std::string& flag,
                 double fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + flag) return std::stod(argv[i + 1]);
  return fallback;
}

std::string argText(int argc, char** argv, const std::string& flag,
                    const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + flag) return argv[i + 1];
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const double degrees = argNumber(argc, argv, "degrees", 1.0);
  const int jobs = static_cast<int>(
      argNumber(argc, argv, "jobs", runner::defaultJobs()));
  const int repeat =
      std::max(1, static_cast<int>(argNumber(argc, argv, "repeat", 3.0)));
  const int codecIters = std::max(
      1, static_cast<int>(argNumber(argc, argv, "codec-iters", 2000.0)));
  const std::string outPath =
      argText(argc, argv, "out", "BENCH_providers.json");

  const cloud::ProviderCatalog& catalog = cloud::ProviderCatalog::builtin();
  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);

  // -- 1. codec throughput ---------------------------------------------------
  std::vector<std::string> encoded;
  for (const auto& [name, profile] : catalog.profiles())
    encoded.push_back(json::dumpJson(cloud::providerToJson(profile)));

  auto t0 = Clock::now();
  std::size_t decoded = 0;
  for (int i = 0; i < codecIters; ++i) {
    for (const std::string& text : encoded) {
      const auto profile = cloud::providerFromJson(json::parseJson(text));
      if (!profile) {
        std::cerr << "perf_providers: codec round-trip failed: "
                  << profile.error() << "\n";
        return 1;
      }
      ++decoded;
    }
  }
  const double codecSeconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double profilesPerSec =
      codecSeconds > 0.0 ? static_cast<double>(decoded) / codecSeconds : 0.0;
  std::cout << "codec: " << decoded << " profiles decoded in " << codecSeconds
            << " s (" << static_cast<std::uint64_t>(profilesPerSec)
            << " profiles/sec)\n";

  // -- 2. optimizer cold vs memo-warm ---------------------------------------
  analysis::OptimizeConfig config;
  config.useSpot = true;
  config.sweepArchiveHosting = true;

  double coldBest = 0.0;
  double warmBest = 0.0;
  std::size_t candidates = 0;
  std::size_t simulations = 0;
  for (int r = 0; r < repeat; ++r) {
    runner::ScenarioMemoCache cache;
    runner::JobQueue queue({.workers = jobs, .cache = &cache});
    config.queue = &queue;
    t0 = Clock::now();
    const analysis::OptimizeResult cold =
        analysis::optimizePlacement(wf, catalog, config);
    const double coldSecs =
        std::chrono::duration<double>(Clock::now() - t0).count();

    t0 = Clock::now();
    const analysis::OptimizeResult warm =
        analysis::optimizePlacement(wf, catalog, config);
    const double warmSecs =
        std::chrono::duration<double>(Clock::now() - t0).count();

    if (cache.stats().hits < warm.simulations) {
      std::cerr << "perf_providers: warm rerun missed the memo cache\n";
      return 1;
    }
    candidates = cold.candidates;
    simulations = cold.simulations;
    if (r == 0 || coldSecs < coldBest) coldBest = coldSecs;
    if (r == 0 || warmSecs < warmBest) warmBest = warmSecs;
    std::cout << "  repeat " << r << ": cold " << coldSecs << " s, warm "
              << warmSecs << " s\n";
  }
  const double warmSpeedup = warmBest > 0.0 ? coldBest / warmBest : 0.0;
  std::cout << "optimizer: " << candidates << " candidates from "
            << simulations << " simulations; cold " << coldBest
            << " s, memo-warm " << warmBest << " s (" << warmSpeedup
            << "x)\n";

  // -- 3. identity vs dataModeComparison ------------------------------------
  bool identical = true;
  runner::JobQueue pool({.workers = jobs});
  for (const char* provider :
       {"amazon-2008", "storage-heavy", "compute-discount"}) {
    analysis::OptimizeConfig one;
    one.providers = {provider};
    one.queue = &pool;
    const analysis::OptimizeResult result =
        analysis::optimizePlacement(wf, catalog, one);
    const auto rows = analysis::dataModeComparison(
        wf, catalog.pricing(provider), analysis::DataModeComparisonConfig{});
    std::map<engine::DataMode, Money> byMode;
    for (const analysis::PlacementCandidate& c : result.ranked)
      if (!byMode.count(c.mode)) byMode[c.mode] = c.cost.total();
    for (const analysis::DataModeMetrics& row : rows) {
      const double diff =
          std::abs((byMode.at(row.mode) - row.totalCost()).value());
      if (diff > 1e-9) {
        std::cerr << "perf_providers: " << provider << "/"
                  << engine::dataModeName(row.mode) << " diverges by $"
                  << diff << "\n";
        identical = false;
      }
    }
  }

  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "perf_providers: cannot write " << outPath << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"provider_catalog_optimizer\",\n"
      << "  \"workflow\": \"" << wf.name() << "\",\n"
      << "  \"profiles\": " << catalog.size() << ",\n"
      << "  \"codec_profiles_per_sec\": " << profilesPerSec << ",\n"
      << "  \"candidates\": " << candidates << ",\n"
      << "  \"simulations\": " << simulations << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"repeats\": " << repeat << ",\n"
      << "  \"optimize_cold_seconds\": " << coldBest << ",\n"
      << "  \"optimize_warm_seconds\": " << warmBest << ",\n"
      << "  \"warm_speedup\": " << warmSpeedup << ",\n"
      << "  \"peak_rss_bytes\": " << bench::peakRssBytes() << ",\n"
      << "  \"identity_ok\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::cout << "identity vs dataModeComparison: "
            << (identical ? "ok" : "DIVERGED") << "; wrote " << outPath
            << "\n";
  return identical ? 0 : 1;
}
