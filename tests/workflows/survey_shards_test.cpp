// Survey shards are built concurrently (one thread per hardware thread, up
// to one per shard).  Whichever thread builds a shard, it must be exactly
// its tile range of the serially built campaign, field by field, and two
// callers building at once must get equal results.  In the `runner` slice,
// so CI's TSan job runs the concurrent build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mcsim/workflows/survey.hpp"

namespace mcsim::workflows {
namespace {

SurveyConfig jitteredCampaign() {
  SurveyConfig cfg;
  cfg.name = "sliced";
  cfg.tiles = 48;
  cfg.seed = 11;
  cfg.runtimeJitterFraction = 0.3;
  cfg.releaseIntervalSeconds = 90.0;
  return cfg;
}

/// `shard` must equal tasks [taskBase, taskBase + shard.taskCount()) and
/// files [fileBase, ...) of `whole`, with every id shifted by the base.
void expectSlice(const dag::Workflow& shard, const dag::Workflow& whole,
                 dag::TaskId taskBase, dag::FileId fileBase) {
  auto taskIds = [&](const std::vector<dag::TaskId>& ids) {
    std::vector<dag::TaskId> out;
    for (dag::TaskId id : ids) out.push_back(id + taskBase);
    return out;
  };
  auto fileIds = [&](const std::vector<dag::FileId>& ids) {
    std::vector<dag::FileId> out;
    for (dag::FileId id : ids) out.push_back(id + fileBase);
    return out;
  };
  for (const dag::Task& x : shard.tasks()) {
    const dag::Task& y = whole.task(x.id + taskBase);
    ASSERT_EQ(x.name, y.name);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.runtimeSeconds, y.runtimeSeconds);
    EXPECT_EQ(x.earliestStartSeconds, y.earliestStartSeconds);
    EXPECT_EQ(fileIds(x.inputs), y.inputs);
    EXPECT_EQ(fileIds(x.outputs), y.outputs);
    EXPECT_EQ(taskIds(x.parents), y.parents);
    EXPECT_EQ(taskIds(x.children), y.children);
    EXPECT_EQ(x.level, y.level);
  }
  for (const dag::File& x : shard.files()) {
    const dag::File& y = whole.file(x.id + fileBase);
    ASSERT_EQ(x.name, y.name);
    EXPECT_EQ(x.size.value(), y.size.value());
    const dag::TaskId producer =
        x.producer == dag::kNoTask ? dag::kNoTask : x.producer + taskBase;
    EXPECT_EQ(producer, y.producer);
    EXPECT_EQ(taskIds(x.consumers), y.consumers);
    EXPECT_EQ(x.explicitOutput, y.explicitOutput);
  }
}

void expectEqual(const std::vector<dag::Workflow>& a,
                 const std::vector<dag::Workflow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].name(), b[s].name());
    ASSERT_EQ(a[s].taskCount(), b[s].taskCount());
    ASSERT_EQ(a[s].fileCount(), b[s].fileCount());
    expectSlice(a[s], b[s], 0, 0);
  }
}

TEST(SurveyShards, EachShardIsItsTileRangeOfTheCampaign) {
  const SurveyConfig cfg = jitteredCampaign();
  const SurveyCounts counts = surveyCounts(cfg);
  const dag::Workflow whole = buildSurveyCampaign(cfg);
  // More shards than most hosts have threads: 16 shards of 3 tiles.
  const std::vector<dag::Workflow> shards = buildSurveyShards(cfg, 16);
  ASSERT_EQ(shards.size(), 16u);

  std::uint64_t tile = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    char name[48];
    std::snprintf(name, sizeof name, "sliced/shard%03zu", s);
    EXPECT_EQ(shards[s].name(), name);
    EXPECT_TRUE(shards[s].finalized());
    ASSERT_EQ(shards[s].taskCount(), 3 * counts.tasksPerTile);
    ASSERT_EQ(shards[s].fileCount(), 3 * counts.filesPerTile);
    expectSlice(shards[s], whole,
                static_cast<dag::TaskId>(tile * counts.tasksPerTile),
                static_cast<dag::FileId>(tile * counts.filesPerTile));
    tile += 3;
  }
  EXPECT_EQ(tile, cfg.tiles);
}

TEST(SurveyShards, UnevenRangesPutTheRemainderFirst) {
  SurveyConfig cfg = jitteredCampaign();
  cfg.tiles = 7;
  const SurveyCounts counts = surveyCounts(cfg);
  const dag::Workflow whole = buildSurveyCampaign(cfg);
  const std::vector<dag::Workflow> shards = buildSurveyShards(cfg, 3);
  const std::vector<std::uint64_t> lengths = {3, 2, 2};
  ASSERT_EQ(shards.size(), lengths.size());
  std::uint64_t tile = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    ASSERT_EQ(shards[s].taskCount(), lengths[s] * counts.tasksPerTile);
    expectSlice(shards[s], whole,
                static_cast<dag::TaskId>(tile * counts.tasksPerTile),
                static_cast<dag::FileId>(tile * counts.filesPerTile));
    tile += lengths[s];
  }
}

TEST(SurveyShards, ConcurrentCallersGetEqualResults) {
  const SurveyConfig cfg = jitteredCampaign();
  std::vector<dag::Workflow> a;
  std::vector<dag::Workflow> b;
  {
    std::jthread first([&] { a = buildSurveyShards(cfg, 16); });
    std::jthread second([&] { b = buildSurveyShards(cfg, 16); });
  }
  expectEqual(a, b);
  expectEqual(a, buildSurveyShards(cfg, 16));
}

}  // namespace
}  // namespace mcsim::workflows
