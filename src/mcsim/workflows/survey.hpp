// Sky-survey campaign generator: thousands of Montage mosaics as one DAG.
//
// The paper simulates single mosaics (up to 4°, 3,027 tasks); the regime
// that actually stresses a cloud deployment is the one sketched in its
// Question 3 and realized by the follow-on mosaic-service work
// (arXiv:1006.4860): a continuous survey rendering the sky tile by tile,
// 10⁶–10⁷ tasks per campaign.  This generator composes `tiles` Montage
// mosaics on a sky grid into one workflow:
//
//   * each tile is the Montage mosaic of montage::paramsForDegrees, written
//     by montage::emitMosaic, the emitter buildMontageWorkflow uses (same
//     tasks, files, names and closed-form calibration),
//   * horizontally adjacent tiles share `overlapFraction` of their raw
//     input images (the survey analog of the paper's overlapping plates —
//     shared inputs are staged in once, not once per tile),
//   * per-tile runtimes jitter deterministically around the calibration
//     target (seeded; same seed ⇒ byte-identical workflow),
//   * tiles can be released on a cadence (releaseIntervalSeconds), modeling
//     a survey feed rather than a backlogged batch.
//
// Campaigns build through dag::WorkflowBuilder (streaming, structure-of-
// arrays; see DESIGN.md), one emitMosaic call per tile, so a million-task
// DAG materializes in one pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/util/expected.hpp"

namespace mcsim::workflows {

/// Everything that determines a survey campaign.
struct SurveyConfig {
  std::string name = "survey";

  /// Number of mosaic tiles in the campaign.
  std::uint64_t tiles = 1;
  /// Tiles are laid out row-major on a tileCols-wide sky grid (the last row
  /// may be partial).  0 = auto: ceil(sqrt(tiles)).
  std::uint32_t tileCols = 0;
  /// Mosaic edge length per tile, in degrees (montage::paramsForDegrees).
  double tileDegrees = 1.0;
  /// Fraction of a tile's raw input images shared with its left neighbour,
  /// in [0, 0.5].  Shared files have one copy in the campaign: staged in
  /// once, consumed by both tiles' mProject stages.
  double overlapFraction = 0.0;
  /// Campaign seed; per-tile seeds derive from it (splitmix64), so a tile's
  /// content depends only on (seed, tile index), not on campaign size.
  std::uint64_t seed = 0;
  /// Per-tile CPU-time jitter: tile target CPU = calibrated * (1 + j*u),
  /// u uniform in [-1, 1] from the tile seed.  In [0, 0.9].  0 = identical
  /// tiles.  File sizes scale along (CCR is preserved per tile).
  double runtimeJitterFraction = 0.0;
  /// Tile t's source tasks (mProject) may not start before t * interval —
  /// a survey feed arriving at a running service.  0 = all available at 0.
  double releaseIntervalSeconds = 0.0;
};

/// Closed-form structure of a campaign — what the generator will emit,
/// computable without building anything (property tests assert the built
/// workflow matches; the builder pre-sizes its columns from this).
struct SurveyCounts {
  std::uint64_t tiles = 0;
  std::uint32_t cols = 0;  ///< Resolved grid width.
  std::uint32_t rows = 0;  ///< ceil(tiles / cols); last row may be partial.
  std::uint64_t tasksPerTile = 0;   ///< MontageParams::taskCount().
  std::uint64_t filesPerTile = 0;   ///< MontageParams::fileCount().
  std::uint64_t sharedRawsPerEdge = 0;  ///< k = round(overlap * n).
  std::uint64_t sharedFiles = 0;    ///< k * (tiles with a left neighbour).
  std::uint64_t tasks = 0;          ///< tiles * tasksPerTile.
  std::uint64_t files = 0;          ///< tiles * filesPerTile - sharedFiles.
  std::uint64_t inputEdges = 0;     ///< Σ task input bindings.
  std::uint64_t outputEdges = 0;    ///< Σ task output bindings.
};

/// Resolve the closed-form counts for `config`.  Throws
/// std::invalid_argument on invalid configs (see validateSurveyConfig).
SurveyCounts surveyCounts(const SurveyConfig& config);

/// Empty string if `config` is buildable; otherwise a human-readable reason
/// (zero tiles, overlap out of range, id-space overflow, ...).
std::string validateSurveyConfig(const SurveyConfig& config);

/// Build the campaign through the streaming WorkflowBuilder.  Returns a
/// finalized workflow.  Throws std::invalid_argument on invalid configs.
dag::Workflow buildSurveyCampaign(const SurveyConfig& config);

/// Non-throwing boundary variant: validation failures (and any build-time
/// error) come back as the error alternative instead of an exception.
Expected<dag::Workflow> trySurveyCampaign(const SurveyConfig& config);

/// One tile as a standalone finalized workflow, named "t<index>" — byte-
/// identical in structure, runtimes and sizes to that tile's slice of the
/// campaign (tile content is a pure function of (seed, tile)).  Release
/// intervals and overlap sharing are campaign-level and do not apply.
/// Without jitter a tile is montage::buildMontageWorkflow(tileDegrees) in
/// every task and file field; only the workflow name differs.
dag::Workflow buildSurveyTile(const SurveyConfig& config, std::uint64_t tile);

/// Split a campaign into `shards` independent sub-campaigns (contiguous
/// tile ranges, remainder spread over the first shards) for the runner's
/// campaign mode: shards simulate concurrently on separate processor
/// pools.  Requires overlapFraction == 0 (shards must not share files) and
/// 1 <= shards <= tiles.  Tile t keeps its campaign-wide identity: seed,
/// jitter and release time are computed from the global tile index, so the
/// union of shards is the campaign.
///
/// The shards are built concurrently on up to min(shards, hardware
/// threads) threads, the caller included.  The result does not depend on
/// that count: each shard is a pure function of the config and its tile
/// range.  If shards fail, the lowest-index failure is rethrown once every
/// thread has finished.
std::vector<dag::Workflow> buildSurveyShards(const SurveyConfig& config,
                                             std::uint32_t shards);

}  // namespace mcsim::workflows
