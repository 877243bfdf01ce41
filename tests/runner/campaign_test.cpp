// runner::runCampaign: shard aggregation arithmetic, campaign-level obs
// events, determinism across worker counts, and argument contracts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/campaign.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::runner {
namespace {

std::vector<dag::Workflow> makeShards(std::uint64_t tiles,
                                      std::uint32_t shards) {
  workflows::SurveyConfig cfg;
  cfg.name = "campaign-test";
  cfg.tiles = tiles;
  cfg.seed = 3;
  cfg.runtimeJitterFraction = 0.4;
  return workflows::buildSurveyShards(cfg, shards);
}

TEST(CampaignTest, AggregatesMatchTheShardResults) {
  const auto shards = makeShards(7, 3);
  CampaignOptions options;
  options.engine.processors = 8;
  const CampaignResult campaign = runCampaign(shards, options);

  ASSERT_EQ(campaign.shards, 3u);
  ASSERT_EQ(campaign.shardResults.size(), 3u);
  EXPECT_TRUE(campaign.completed);

  std::size_t tasks = 0;
  double maxMakespan = 0.0, sumMakespan = 0.0, cpu = 0.0;
  double bytesIn = 0.0, bytesOut = 0.0;
  for (const ScenarioResult& shard : campaign.shardResults) {
    tasks += shard.result.tasksExecuted;
    maxMakespan = std::max(maxMakespan, shard.result.makespanSeconds);
    sumMakespan += shard.result.makespanSeconds;
    cpu += shard.result.cpuBusySeconds;
    bytesIn += shard.result.bytesIn.value();
    bytesOut += shard.result.bytesOut.value();
  }
  EXPECT_EQ(campaign.tasks, tasks);
  EXPECT_DOUBLE_EQ(campaign.makespanSeconds, maxMakespan);
  EXPECT_DOUBLE_EQ(campaign.serializedMakespanSeconds, sumMakespan);
  EXPECT_DOUBLE_EQ(campaign.totalCpuSeconds, cpu);
  EXPECT_DOUBLE_EQ(campaign.bytesIn.value(), bytesIn);
  EXPECT_DOUBLE_EQ(campaign.bytesOut.value(), bytesOut);
  // Concurrent shards can't take longer than running them back to back.
  EXPECT_LE(campaign.makespanSeconds, campaign.serializedMakespanSeconds);

  // All seven tiles' tasks are accounted for exactly once.
  workflows::SurveyConfig cfg;
  cfg.tiles = 7;
  EXPECT_EQ(campaign.tasks, workflows::surveyCounts(cfg).tasks);
}

TEST(CampaignTest, EmitsShardAndCampaignEvents) {
  const auto shards = makeShards(5, 2);
  obs::CollectingSink sink;
  CampaignOptions options;
  options.engine.processors = 4;
  options.observer = &sink;
  const CampaignResult campaign = runCampaign(shards, options);

  std::size_t shardEvents = 0, campaignEvents = 0;
  for (const obs::Event& event : sink.events()) {
    if (const auto* s = std::get_if<obs::ShardCompleted>(&event.payload)) {
      EXPECT_EQ(s->shards, 2u);
      EXPECT_EQ(event.time,
                campaign.shardResults[s->shard].result.makespanSeconds);
      EXPECT_EQ(s->tasks,
                campaign.shardResults[s->shard].result.tasksExecuted);
      ++shardEvents;
    } else if (const auto* c =
                   std::get_if<obs::CampaignCompleted>(&event.payload)) {
      EXPECT_EQ(c->shards, 2u);
      EXPECT_EQ(c->tasks, campaign.tasks);
      EXPECT_DOUBLE_EQ(c->makespanSeconds, campaign.makespanSeconds);
      EXPECT_DOUBLE_EQ(c->totalCpuSeconds, campaign.totalCpuSeconds);
      ++campaignEvents;
    }
  }
  EXPECT_EQ(shardEvents, 2u);
  EXPECT_EQ(campaignEvents, 1u);
}

TEST(CampaignTest, ResultsAreIdenticalAcrossWorkerCounts) {
  const auto shards = makeShards(6, 3);
  CampaignOptions serial;
  serial.engine.processors = 8;
  JobQueue pool({.workers = 3});
  CampaignOptions parallel = serial;
  parallel.queue = &pool;

  const CampaignResult a = runCampaign(shards, serial);
  const CampaignResult b = runCampaign(shards, parallel);
  ASSERT_EQ(a.shardResults.size(), b.shardResults.size());
  for (std::size_t i = 0; i < a.shardResults.size(); ++i) {
    EXPECT_EQ(a.shardResults[i].index, b.shardResults[i].index);
    EXPECT_EQ(a.shardResults[i].result.makespanSeconds,
              b.shardResults[i].result.makespanSeconds);
    EXPECT_EQ(a.shardResults[i].result.cpuBusySeconds,
              b.shardResults[i].result.cpuBusySeconds);
    EXPECT_EQ(a.shardResults[i].result.bytesIn.value(),
              b.shardResults[i].result.bytesIn.value());
  }
  EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
  EXPECT_EQ(a.totalCpuSeconds, b.totalCpuSeconds);
}

TEST(CampaignTest, RejectsEmptyShardsAndPerShardObservers) {
  EXPECT_THROW(runCampaign({}, {}), std::invalid_argument);

  const auto shards = makeShards(2, 2);
  obs::CollectingSink sink;
  CampaignOptions options;
  options.engine.observer = &sink;  // must go through CampaignOptions
  EXPECT_THROW(runCampaign(shards, options), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::runner
