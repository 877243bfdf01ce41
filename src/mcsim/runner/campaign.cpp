#include "mcsim/runner/campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::runner {

CampaignResult runCampaign(const std::vector<dag::Workflow>& shards,
                           const CampaignOptions& options) {
  if (shards.empty())
    throw std::invalid_argument("runCampaign: no shards");
  if (options.engine.observer != nullptr)
    throw std::invalid_argument(
        "runCampaign: options.engine.observer must be nullptr (a campaign "
        "reports through CampaignResult, not an event stream)");

  std::vector<ScenarioSpec> specs;
  specs.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ScenarioSpec spec;
    spec.workflow = &shards[i];
    spec.config = options.engine;
    spec.label = "shard" + std::to_string(i);
    specs.push_back(std::move(spec));
  }

  CampaignResult campaign;
  campaign.shards = shards.size();
  campaign.shardResults =
      runOnQueue(options.queue, specs, {.baseSeed = options.baseSeed});

  for (const ScenarioResult& shard : campaign.shardResults) {
    const engine::ExecutionResult& r = shard.result;
    campaign.tasks += r.tasksExecuted;
    campaign.makespanSeconds =
        std::max(campaign.makespanSeconds, r.makespanSeconds);
    campaign.serializedMakespanSeconds += r.makespanSeconds;
    campaign.totalCpuSeconds += r.cpuBusySeconds;
    campaign.bytesIn += r.bytesIn;
    campaign.bytesOut += r.bytesOut;
    campaign.storageByteSeconds += r.storageByteSeconds;
    campaign.completed = campaign.completed && r.completed();
  }

  return campaign;
}

}  // namespace mcsim::runner
