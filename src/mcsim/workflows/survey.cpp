#include "mcsim/workflows/survey.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "mcsim/montage/factory.hpp"

namespace mcsim::workflows {

namespace {

using dag::FileId;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A tile's seed is a pure function of (campaign seed, tile index): tile
/// content never depends on campaign size or shard boundaries.
std::uint64_t tileSeed(const SurveyConfig& config, std::uint64_t tile) {
  return splitmix64(config.seed + splitmix64(tile + 1));
}

/// Deterministic per-tile CPU multiplier in [1-j, 1+j].
double jitterFactor(const SurveyConfig& config, std::uint64_t tile) {
  // 0.0 is the exact "jitter disabled" default, never a computed value.
  // mcsim-lint: allow(float-equality)
  if (config.runtimeJitterFraction == 0.0) return 1.0;
  const double u =
      static_cast<double>(tileSeed(config, tile) >> 11) * 0x1.0p-53;
  return 1.0 + config.runtimeJitterFraction * (2.0 * u - 1.0);
}

std::string tilePrefix(std::uint64_t tile, bool slash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "t%05llu%s",
                static_cast<unsigned long long>(tile), slash ? "/" : "");
  return buf;
}

/// Build tiles [firstTile, lastTile) of the campaign through the streaming
/// builder.  Shared-raw aliasing only engages for tiles whose left
/// neighbour is inside the range (full campaigns start at 0, so every
/// left neighbour is; shard mode requires overlap 0).
dag::Workflow buildTileRange(const SurveyConfig& config,
                             const SurveyCounts& counts, std::string name,
                             std::uint64_t firstTile, std::uint64_t lastTile) {
  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const std::uint64_t tiles = lastTile - firstTile;
  const std::size_t k = static_cast<std::size_t>(counts.sharedRawsPerEdge);

  dag::WorkflowBuilder builder(std::move(name));
  // Average name ~= 7-char tile prefix + ~17-char stem; 28 covers both
  // comfortably without measuring.
  builder.reserve(tiles * counts.tasksPerTile, tiles * counts.filesPerTile,
                  tiles * (counts.inputEdges / counts.tiles),
                  tiles * (counts.outputEdges / counts.tiles),
                  tiles * (counts.tasksPerTile + counts.filesPerTile) * 28);

  // A tile's first k raws are its left neighbour's last k: the overlapping
  // sky strip, one archive file consumed by both tiles.
  std::vector<FileId> prevRaws;
  for (std::uint64_t t = firstTile; t < lastTile; ++t) {
    const bool shareLeft = k > 0 && t % counts.cols != 0 && t > firstTile;
    prevRaws = montage::emitMosaic(
        builder, p, jitterFactor(config, t), tilePrefix(t, true),
        static_cast<double>(t) * config.releaseIntervalSeconds,
        shareLeft ? std::span<const FileId>(prevRaws).last(k)
                  : std::span<const FileId>());
  }
  return builder.build();
}

}  // namespace

std::string validateSurveyConfig(const SurveyConfig& config) {
  if (config.tiles == 0) return "tiles must be >= 1";
  if (!(config.tileDegrees > 0.0) || !(config.tileDegrees <= 16.0))
    return "tileDegrees must be in (0, 16]";
  if (!(config.overlapFraction >= 0.0 && config.overlapFraction <= 0.5))
    return "overlapFraction must be in [0, 0.5]";
  if (!(config.runtimeJitterFraction >= 0.0 &&
        config.runtimeJitterFraction <= 0.9))
    return "runtimeJitterFraction must be in [0, 0.9]";
  if (!(config.releaseIntervalSeconds >= 0.0) ||
      !std::isfinite(config.releaseIntervalSeconds))
    return "releaseIntervalSeconds must be finite and >= 0";

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const std::uint64_t tasksPerTile = static_cast<std::uint64_t>(p.taskCount());
  const std::uint64_t filesPerTile = static_cast<std::uint64_t>(p.fileCount());
  // Task/file ids are 32-bit with the max value reserved (dag::kNoTask).
  const std::uint64_t maxIds = dag::kNoTask - 1;
  if (config.tiles > maxIds / tasksPerTile)
    return "campaign exceeds the 32-bit task id space (" +
           std::to_string(config.tiles) + " tiles x " +
           std::to_string(tasksPerTile) + " tasks/tile)";
  if (config.tiles > maxIds / filesPerTile)
    return "campaign exceeds the 32-bit file id space";

  // The CCR calibration must be feasible for every tile; the binding case
  // is the lowest-CPU tile (jitter factor 1 - j).
  const std::string error =
      montage::calibrationError(p, 1.0 - config.runtimeJitterFraction);
  return error.empty()
             ? error
             : error + " (tileDegrees too small or jitter too large)";
}

SurveyCounts surveyCounts(const SurveyConfig& config) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) throw std::invalid_argument("survey: " + error);

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);

  SurveyCounts c;
  c.tiles = config.tiles;
  c.cols = config.tileCols != 0
               ? config.tileCols
               : static_cast<std::uint32_t>(std::ceil(std::sqrt(
                     static_cast<double>(config.tiles))));
  c.rows = static_cast<std::uint32_t>((config.tiles + c.cols - 1) / c.cols);
  c.tasksPerTile = static_cast<std::uint64_t>(p.taskCount());
  c.filesPerTile = static_cast<std::uint64_t>(p.fileCount());
  c.sharedRawsPerEdge = static_cast<std::uint64_t>(std::llround(
      config.overlapFraction * static_cast<double>(p.imageCount())));
  // Every tile except the first of each (possibly partial) row has a left
  // neighbour to share with.
  c.sharedFiles = c.sharedRawsPerEdge * (c.tiles - c.rows);
  c.tasks = c.tiles * c.tasksPerTile;
  c.files = c.tiles * c.filesPerTile - c.sharedFiles;
  c.inputEdges = c.tiles * static_cast<std::uint64_t>(p.inputEdgeCount());
  c.outputEdges = c.tiles * static_cast<std::uint64_t>(p.outputEdgeCount());
  return c;
}

dag::Workflow buildSurveyCampaign(const SurveyConfig& config) {
  const SurveyCounts counts = surveyCounts(config);
  dag::Workflow wf =
      buildTileRange(config, counts, config.name, 0, config.tiles);
  if (wf.taskCount() != counts.tasks || wf.fileCount() != counts.files)
    throw std::logic_error(
        "survey: built campaign does not match the closed-form counts "
        "(generator bug): built " +
        std::to_string(wf.taskCount()) + " tasks / " +
        std::to_string(wf.fileCount()) + " files, expected " +
        std::to_string(counts.tasks) + " / " + std::to_string(counts.files));
  return wf;
}

Expected<dag::Workflow> trySurveyCampaign(const SurveyConfig& config) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) return makeUnexpected("survey: " + error);
  try {
    return buildSurveyCampaign(config);
  } catch (const std::exception& e) {
    return makeUnexpected(std::string(e.what()));
  }
}

dag::Workflow buildSurveyTile(const SurveyConfig& config, std::uint64_t tile) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) throw std::invalid_argument("survey: " + error);
  if (tile >= config.tiles)
    throw std::invalid_argument("survey: tile " + std::to_string(tile) +
                                " out of range (tiles = " +
                                std::to_string(config.tiles) + ")");

  montage::MontageParams p = montage::paramsForDegrees(config.tileDegrees);
  p.name = tilePrefix(tile, false);
  p.targetCpuSeconds *= jitterFactor(config, tile);
  return montage::buildMontageWorkflow(p);
}

std::vector<dag::Workflow> buildSurveyShards(const SurveyConfig& config,
                                             std::uint32_t shards) {
  const SurveyCounts counts = surveyCounts(config);
  if (counts.sharedRawsPerEdge != 0)
    throw std::invalid_argument(
        "survey: shard mode requires overlapFraction = 0 (shards must not "
        "share files)");
  if (shards == 0 || shards > config.tiles)
    throw std::invalid_argument(
        "survey: shards must be in [1, tiles] (got " + std::to_string(shards) +
        " for " + std::to_string(config.tiles) + " tiles)");

  // Shard s covers tiles [firstTile(s), firstTile(s + 1)); the first `rem`
  // shards take one extra tile.
  const std::uint64_t base = config.tiles / shards;
  const std::uint64_t rem = config.tiles % shards;
  auto firstTile = [&](std::uint64_t s) { return s * base + std::min(s, rem); };

  // Shards share nothing, so threads claim them from one counter and each
  // builds into its own slot; a shard's content depends only on its tile
  // range, never on which thread built it or when.
  std::vector<dag::Workflow> out(shards, dag::Workflow(std::string()));
  std::vector<std::exception_ptr> errors(shards);
  std::atomic<std::uint32_t> next{0};
  auto work = [&] {
    for (std::uint32_t s = next++; s < shards; s = next++) {
      try {
        char suffix[32];
        std::snprintf(suffix, sizeof suffix, "/shard%03u", s);
        out[s] = buildTileRange(config, counts, config.name + suffix,
                                firstTile(s), firstTile(s + 1));
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  const unsigned threads = std::min<unsigned>(
      shards, std::max(1u, std::thread::hardware_concurrency()));
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    try {
      for (unsigned i = 1; i < threads; ++i) helpers.emplace_back(work);
    } catch (const std::system_error&) {
      // Fewer threads than asked for: the caller and the helpers that did
      // start still claim every shard.
    }
    work();
  }  // joins the helpers
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace mcsim::workflows
