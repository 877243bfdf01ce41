#include "mcsim/runner/campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::runner {

CampaignResult runCampaign(const std::vector<dag::Workflow>& shards,
                           const CampaignOptions& options) {
  if (shards.empty())
    throw std::invalid_argument("runCampaign: no shards");
  if (options.engine.observer != nullptr)
    throw std::invalid_argument(
        "runCampaign: options.engine.observer must be nullptr (observation "
        "is managed per shard; use CampaignOptions::observer)");

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
      runOnQueue(options.queue, specs,
                 {.baseSeed = options.baseSeed, .observer = options.observer});

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

  // Roll-ups ride behind the deterministic merged shard streams, exactly
  // like the queue's own cache-stats event: one ShardCompleted per shard
  // (stamped with that shard's simulated makespan), then the campaign
  // summary at the campaign makespan.
  if (obs::Sink* sink = options.observer) {
    if (sink->accepts(obs::kEventKindOf<obs::ShardCompleted>))
      for (const ScenarioResult& shard : campaign.shardResults)
        sink->onEvent({shard.result.makespanSeconds,
                       obs::ShardCompleted{shard.index, campaign.shards,
                                           shard.result.tasksExecuted,
                                           shard.result.makespanSeconds}});
    if (sink->accepts(obs::kEventKindOf<obs::CampaignCompleted>))
      sink->onEvent({campaign.makespanSeconds,
                     obs::CampaignCompleted{campaign.shards, campaign.tasks,
                                            campaign.makespanSeconds,
                                            campaign.totalCpuSeconds}});
  }
  return campaign;
}

}  // namespace mcsim::runner
