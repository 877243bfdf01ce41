#include "pipeline.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/json.hpp"

namespace mcbench {

using namespace mcsim;

int poolWorkers() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
}

cloud::Pricing loadPricing() {
  Expected<cloud::ProviderCatalog> catalog =
      cloud::loadProviderCatalog("config/providers");
  if (!catalog)
    throw std::runtime_error("cannot load config/providers: " +
                             catalog.error());
  return catalog->pricing("amazon-2008");
}

std::vector<runner::ScenarioResult> runBatch(
    const std::vector<runner::ScenarioSpec>& specs, runner::JobQueue* queue,
    runner::ScenarioMemoCache& cache, LayerTimes& layers, Report& report) {
  const runner::MemoStats before = cache.stats();
  std::vector<runner::ScenarioResult> results;
  if (queue) {
    results = queue->run(specs);
  } else {
    // Workflow fingerprints are amortized over the batch, as the runner does.
    std::map<const dag::Workflow*, std::uint64_t> workflowKeys;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const runner::ScenarioSpec& spec = specs[i];
      runner::ScenarioResult out;
      out.index = i;
      out.label = spec.label;
      const auto hit = timed(layers.memo, [&] {
        auto [it, fresh] = workflowKeys.try_emplace(spec.workflow, 0);
        if (fresh) it->second = runner::fingerprintWorkflow(*spec.workflow);
        const std::uint64_t key = runner::combineFingerprints(
            it->second, runner::fingerprintConfig(spec.config, false));
        return std::make_pair(key, cache.lookup(key));
      });
      if (hit.second) {
        out.result = std::move(hit.second->result);
        out.fromCache = true;
      } else {
        out.result = timed(layers.engine, [&] {
          return engine::simulateWorkflow(*spec.workflow, spec.config);
        });
        ++report.engineRuns;
        report.engineTasks += out.result.tasksExecuted;
        timed(layers.memo, [&] { cache.insert(hit.first, {out.result, {}}); });
      }
      results.push_back(std::move(out));
    }
  }
  const runner::MemoStats after = cache.stats();
  report.cacheHits += after.hits - before.hits;
  report.cacheLookups +=
      (after.hits + after.misses) - (before.hits + before.misses);
  return results;
}

void priceAndRender(const std::vector<runner::ScenarioResult>& results,
                    const std::vector<std::size_t>& tasks,
                    const cloud::Pricing& pricing,
                    cloud::CpuBillingMode billing,
                    cloud::BillingGranularity granularity,
                    std::vector<cloud::CostBreakdown>& costs,
                    LayerTimes& layers, Report& report) {
  timed(layers.price, [&] {
    for (const runner::ScenarioResult& r : results)
      costs.push_back(
          engine::computeCost(r.result, pricing, billing, granularity));
  });
  const json::JsonValue parsed = timed(layers.render, [&] {
    return json::parseJson(
        json::dumpJson(serve::scenarioResultsToJson(results, pricing)));
  });
  const json::JsonArray& rows = parsed.asArray();
  report.check(rows.size() == results.size(), "rendered result count");
  for (std::size_t i = 0; i < rows.size() && i < tasks.size(); ++i) {
    report.check(rows[i].at("completed").asBool(),
                 "scenario " + results[i].label + " did not complete");
    report.check(rows[i].at("tasks_executed").asNumber() ==
                     static_cast<double>(tasks[i]),
                 "scenario " + results[i].label + " ran a partial workflow");
    report.tasksDelivered += tasks[i];
  }
}

bool sameResult(const engine::ExecutionResult& a,
                const engine::ExecutionResult& b) {
  return a.mode == b.mode && a.processors == b.processors &&
         a.makespanSeconds == b.makespanSeconds &&
         a.cpuBusySeconds == b.cpuBusySeconds &&
         a.processorBusySeconds == b.processorBusySeconds &&
         a.bytesIn.value() == b.bytesIn.value() &&
         a.bytesOut.value() == b.bytesOut.value() &&
         a.storageByteSeconds == b.storageByteSeconds &&
         a.peakStorageBytes.value() == b.peakStorageBytes.value() &&
         a.tasksExecuted == b.tasksExecuted;
}

}  // namespace mcbench
