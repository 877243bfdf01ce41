// Survey differential tests: the streaming campaign builder must agree
// with the naive reference paths — tile-by-tile construction merged
// through dag::mergeWorkflows (mergedTiles below), and
// dag::replicateWorkflow for uniform campaigns — structurally and through
// the engine, including under fault injection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/dag/merge.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::workflows {
namespace {

/// The reference composition: every tile built standalone, then merged with
/// dag::mergeWorkflows, or mergeWorkflowsStaggered when tiles are released
/// on a cadence.  A merge of independent parts cannot share files, so it
/// only covers configs with overlapFraction == 0.
dag::Workflow mergedTiles(const SurveyConfig& config) {
  std::vector<dag::Workflow> parts;
  for (std::uint64_t t = 0; t < config.tiles; ++t)
    parts.push_back(buildSurveyTile(config, t));
  if (config.releaseIntervalSeconds > 0.0) {
    std::vector<double> releases(config.tiles);
    for (std::uint64_t t = 0; t < config.tiles; ++t)
      releases[t] = static_cast<double>(t) * config.releaseIntervalSeconds;
    return dag::mergeWorkflowsStaggered(parts, releases, config.name);
  }
  return dag::mergeWorkflows(parts, config.name);
}

void expectIdenticalGraphs(const dag::Workflow& a, const dag::Workflow& b) {
  ASSERT_EQ(a.taskCount(), b.taskCount());
  ASSERT_EQ(a.fileCount(), b.fileCount());
  for (std::size_t i = 0; i < a.taskCount(); ++i) {
    const dag::Task& x = a.task(static_cast<dag::TaskId>(i));
    const dag::Task& y = b.task(static_cast<dag::TaskId>(i));
    ASSERT_EQ(x.name, y.name);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.runtimeSeconds, y.runtimeSeconds);
    EXPECT_EQ(x.earliestStartSeconds, y.earliestStartSeconds);
    EXPECT_EQ(x.inputs, y.inputs);
    EXPECT_EQ(x.outputs, y.outputs);
    EXPECT_EQ(x.parents, y.parents);
    EXPECT_EQ(x.children, y.children);
    EXPECT_EQ(x.level, y.level);
  }
  for (std::size_t i = 0; i < a.fileCount(); ++i) {
    const dag::File& x = a.file(static_cast<dag::FileId>(i));
    const dag::File& y = b.file(static_cast<dag::FileId>(i));
    ASSERT_EQ(x.name, y.name);
    EXPECT_EQ(x.size.value(), y.size.value());
    EXPECT_EQ(x.producer, y.producer);
    EXPECT_EQ(x.consumers, y.consumers);
    EXPECT_EQ(x.explicitOutput, y.explicitOutput);
  }
}

void expectSimEquivalent(const dag::Workflow& a, const dag::Workflow& b,
                         const engine::EngineConfig& config) {
  const engine::ExecutionResult ra = engine::simulateWorkflow(a, config);
  const engine::ExecutionResult rb = engine::simulateWorkflow(b, config);
  EXPECT_EQ(ra.tasksExecuted, rb.tasksExecuted);
  EXPECT_EQ(ra.completed(), rb.completed());
  EXPECT_NEAR(ra.makespanSeconds, rb.makespanSeconds,
              1e-6 * rb.makespanSeconds);
  EXPECT_NEAR(ra.cpuBusySeconds, rb.cpuBusySeconds,
              1e-6 * rb.cpuBusySeconds);
  EXPECT_NEAR(ra.bytesIn.value(), rb.bytesIn.value(),
              1e-6 * rb.bytesIn.value());
  EXPECT_NEAR(ra.bytesOut.value(), rb.bytesOut.value(),
              1e-6 * rb.bytesOut.value());
}

class SurveyDifferential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Tiles, SurveyDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

TEST_P(SurveyDifferential, StreamingMatchesMergeReferenceExactly) {
  SurveyConfig cfg;
  cfg.name = "diff";
  cfg.tiles = GetParam();
  cfg.seed = 99;
  cfg.runtimeJitterFraction = 0.4;
  const dag::Workflow streaming = buildSurveyCampaign(cfg);
  const dag::Workflow reference = mergedTiles(cfg);
  expectIdenticalGraphs(streaming, reference);
}

TEST_P(SurveyDifferential, StreamingMatchesStaggeredReferenceWithReleases) {
  SurveyConfig cfg;
  cfg.name = "diff";
  cfg.tiles = GetParam();
  cfg.seed = 7;
  cfg.runtimeJitterFraction = 0.25;
  cfg.releaseIntervalSeconds = 300.0;
  const dag::Workflow streaming = buildSurveyCampaign(cfg);
  const dag::Workflow reference = mergedTiles(cfg);
  expectIdenticalGraphs(streaming, reference);
}

TEST_P(SurveyDifferential, SimulationAgreesWithReference) {
  SurveyConfig cfg;
  cfg.name = "diff";
  cfg.tiles = GetParam();
  cfg.seed = 4;
  cfg.runtimeJitterFraction = 0.5;
  cfg.releaseIntervalSeconds = 120.0;
  const dag::Workflow streaming = buildSurveyCampaign(cfg);
  const dag::Workflow reference = mergedTiles(cfg);

  engine::EngineConfig config;
  config.processors = 16;
  expectSimEquivalent(streaming, reference, config);
  config.mode = engine::DataMode::DynamicCleanup;
  expectSimEquivalent(streaming, reference, config);
}

TEST_P(SurveyDifferential, SimulationAgreesUnderFaultInjection) {
  SurveyConfig cfg;
  cfg.name = "diff";
  cfg.tiles = GetParam();
  cfg.seed = 4;
  cfg.runtimeJitterFraction = 0.3;
  const dag::Workflow streaming = buildSurveyCampaign(cfg);
  const dag::Workflow reference = mergedTiles(cfg);

  engine::EngineConfig config;
  config.processors = 8;
  config.faults.legacy.probability = 0.05;
  config.faults.legacy.seed = 11;
  // Identical graphs draw identical fault streams, so the results must
  // agree to the same tolerance as the fault-free runs.
  expectSimEquivalent(streaming, reference, config);
}

TEST_P(SurveyDifferential, UniformCampaignSimulatesLikeReplicateWorkflow) {
  // With jitter 0 every tile is the same graph, so replicateWorkflow of
  // one tile is simulation-equivalent (names differ: req<i>/ vs t<i>/).
  SurveyConfig cfg;
  cfg.name = "diff";
  cfg.tiles = GetParam();
  cfg.seed = 21;
  const dag::Workflow streaming = buildSurveyCampaign(cfg);
  const dag::Workflow replicated = dag::replicateWorkflow(
      buildSurveyTile(cfg, 0), static_cast<int>(cfg.tiles), cfg.name);
  ASSERT_EQ(streaming.taskCount(), replicated.taskCount());
  ASSERT_EQ(streaming.fileCount(), replicated.fileCount());

  engine::EngineConfig config;
  config.processors = 16;
  expectSimEquivalent(streaming, replicated, config);
}

TEST(SurveyDifferentialEdge, OverlapSharingRewiresConsumersAcrossTiles) {
  SurveyConfig cfg;
  cfg.name = "overlap";
  cfg.tiles = 4;
  cfg.tileCols = 2;
  cfg.overlapFraction = 0.3;
  const SurveyCounts counts = surveyCounts(cfg);
  ASSERT_GT(counts.sharedRawsPerEdge, 0u);
  const dag::Workflow wf = buildSurveyCampaign(cfg);
  EXPECT_EQ(wf.taskCount(), counts.tasks);
  EXPECT_EQ(wf.fileCount(), counts.files);

  // Shared raws are consumed by mProject tasks of two adjacent tiles.
  std::size_t crossTileRaws = 0;
  for (const dag::File& f : wf.files())
    if (f.producer == dag::kNoTask && f.consumers.size() == 2)
      ++crossTileRaws;
  EXPECT_EQ(crossTileRaws, counts.sharedFiles);

  // Shards must not share files, so shard mode refuses overlap.
  EXPECT_THROW(buildSurveyShards(cfg, 2), std::invalid_argument);
}

TEST(SurveyDifferentialEdge, ShardsPartitionTheCampaignExactly) {
  SurveyConfig cfg;
  cfg.name = "sharded";
  cfg.tiles = 11;
  cfg.seed = 5;
  cfg.runtimeJitterFraction = 0.4;
  const dag::Workflow whole = buildSurveyCampaign(cfg);
  const std::vector<dag::Workflow> shards = buildSurveyShards(cfg, 3);
  ASSERT_EQ(shards.size(), 3u);

  std::size_t tasks = 0;
  double runtime = 0.0;
  for (const dag::Workflow& s : shards) {
    tasks += s.taskCount();
    runtime += s.totalRuntimeSeconds();
  }
  EXPECT_EQ(tasks, whole.taskCount());
  // Tile content is a pure function of (seed, tile), so sharding must not
  // perturb total work.
  EXPECT_NEAR(runtime, whole.totalRuntimeSeconds(),
              1e-9 * whole.totalRuntimeSeconds());
}

}  // namespace
}  // namespace mcsim::workflows
