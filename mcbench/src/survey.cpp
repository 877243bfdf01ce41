// survey_1m: one sky-survey campaign of about 10^6 tasks per operation
// (4927 one-degree Montage tiles, seeded runtime jitter), built through the
// streaming WorkflowBuilder as 16 shards, simulated in Regular and
// DynamicCleanup mode with one processor pool per shard, priced and
// rendered.  Every campaign has its own seed, so the memo cache only ever
// sees distinct keys: this workload pays for fingerprinting and never
// profits from it, the opposite of paper_sweep.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/workflows/survey.hpp"
#include "pipeline.hpp"

namespace mcbench {
namespace {

using namespace mcsim;
using engine::DataMode;

constexpr std::uint64_t kTiles = 4927;       // 203 tasks per tile: ~10^6.
constexpr std::uint64_t kWarmupTiles = 493;  // ~10^5 tasks.
constexpr std::uint32_t kShards = 16;
constexpr int kProcessorsPerShard = 32;

class Survey {
 public:
  explicit Survey(const Options& options)
      : options_(options),
        pricing_(loadPricing()),
        cache_(runner::MemoCacheOptions{.maxEntries = 2 * kShards}),
        queue_({.workers = poolWorkers(), .cache = &cache_}) {
    Report warmup;
    run(~std::uint64_t{0}, kWarmupTiles, warmup);
  }

  /// Build, simulate, price and render one campaign; returns its first
  /// shard with that shard's Regular-mode result, for the replay check.
  std::pair<dag::Workflow, engine::ExecutionResult> run(std::uint64_t op,
                                                        std::uint64_t tiles,
                                                        Report& report) {
    LayerTimes layers;
    workflows::SurveyConfig config;
    config.name = "survey";
    config.tiles = tiles;
    config.seed = runner::deriveSeed(options_.seed, op);
    config.runtimeJitterFraction = 0.25;
    std::vector<dag::Workflow> shards = timed(layers.dag, [&] {
      return workflows::buildSurveyShards(config, kShards);
    });
    const std::uint64_t campaignTasks = workflows::surveyCounts(config).tasks;

    std::vector<std::size_t> tasks;
    for (const dag::Workflow& shard : shards) tasks.push_back(shard.taskCount());
    std::vector<std::vector<runner::ScenarioResult>> byMode;
    for (DataMode mode : {DataMode::Regular, DataMode::DynamicCleanup}) {
      std::vector<runner::ScenarioSpec> specs(shards.size());
      for (std::size_t i = 0; i < shards.size(); ++i) {
        specs[i].workflow = &shards[i];
        specs[i].config.mode = mode;
        specs[i].config.processors = kProcessorsPerShard;
        specs[i].label = shards[i].name();
      }
      byMode.push_back(runBatch(specs, options_.trace ? nullptr : &queue_,
                                cache_, layers, report));
      std::vector<cloud::CostBreakdown> costs;
      priceAndRender(byMode.back(), tasks, pricing_,
                     cloud::CpuBillingMode::Provisioned,
                     cloud::BillingGranularity::PerSecond, costs, layers,
                     report);
    }
    if (options_.trace) report.opLayers.push_back(layers);

    std::uint64_t executed = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const engine::ExecutionResult& regular = byMode[0][i].result;
      const engine::ExecutionResult& cleanup = byMode[1][i].result;
      executed += regular.tasksExecuted;
      report.check(cleanup.storageByteSeconds <= regular.storageByteSeconds,
                   "survey shard: cleanup stores more than regular");
      report.check(cleanup.bytesIn.value() == regular.bytesIn.value(),
                   "survey shard: stage-in depends on the data mode");
    }
    report.check(executed == campaignTasks,
                 "survey: executed tasks differ from the closed-form count");
    return {std::move(shards.front()), byMode[0][0].result};
  }

 private:
  Options options_;
  cloud::Pricing pricing_;
  runner::ScenarioMemoCache cache_;
  runner::JobQueue queue_;  // Last: its workers use the cache above.
};

}  // namespace

Report runSurvey(const Options& options) {
  Report report;
  const std::unique_ptr<Survey> bench = bringUp<Survey>(options, report);
  std::optional<std::pair<dag::Workflow, engine::ExecutionResult>> first;
  const auto start = Clock::now();
  for (std::uint64_t op = 0;
       op == 0 || secondsSince(start) < options.seconds; ++op) {
    const auto t0 = Clock::now();
    auto shard = bench->run(op, kTiles, report);
    report.opSeconds.push_back(secondsSince(t0));
    if (!first) first = std::move(shard);
  }
  report.windowSeconds = secondsSince(start);

  // The pooled result of the first shard equals a direct engine run.
  engine::EngineConfig config;
  config.processors = kProcessorsPerShard;
  report.check(
      sameResult(engine::simulateWorkflow(first->first, config), first->second),
      "survey: pooled shard result differs from a direct engine run");
  return report;
}

}  // namespace mcbench
