#include "mcsim/workflows/survey.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "mcsim/montage/catalog.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::workflows {

namespace {

using dag::FileId;
using dag::TaskId;

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

/// Closed-form equivalent of the factory's two post-hoc calibration passes
/// (buildMontageWorkflow): a uniform runtime scale hitting the tile's
/// target CPU seconds, and the per-file size of the 4n intermediate images
/// that makes total bytes = targetCcr * B * targetCpu with the fixed file
/// population held constant.  Computing these up front lets the streaming
/// path emit final values directly — no rescaling sweep over 10⁷ files —
/// while matching the factory's arithmetic exactly.
struct TileCalib {
  double runtimeScale = 1.0;
  Bytes intermediateBytes;
};

double baseTileCpuSeconds(const montage::MontageParams& p) {
  using montage::baseRuntimeSeconds;
  using montage::TaskType;
  const double n = static_cast<double>(p.imageCount());
  const double d = static_cast<double>(p.diffCount);
  return n * (baseRuntimeSeconds(TaskType::mProject) +
              baseRuntimeSeconds(TaskType::mBackground)) +
         d * baseRuntimeSeconds(TaskType::mDiffFit) +
         baseRuntimeSeconds(TaskType::mConcatFit) +
         baseRuntimeSeconds(TaskType::mBgModel) +
         baseRuntimeSeconds(TaskType::mImgtbl) +
         baseRuntimeSeconds(TaskType::mAdd) +
         baseRuntimeSeconds(TaskType::mShrink) +
         baseRuntimeSeconds(TaskType::mJPEG);
}

double fixedTileBytes(const montage::MontageParams& p) {
  const double n = static_cast<double>(p.imageCount());
  // Header + raws + (d fit files + fits/corrections/cimages tables) +
  // mosaic + shrunk mosaic + preview: everything the CCR calibration does
  // NOT scale.
  return p.headerBytes.value() + n * p.inputImageBytes.value() +
         static_cast<double>(p.diffCount + 3) * p.textFileBytes.value() +
         p.mosaicBytes.value() * (1.0 + p.shrinkFactor) + p.jpegBytes.value();
}

/// Empty `error` on success.
TileCalib computeTileCalib(const montage::MontageParams& p, double cpuFactor,
                           std::string* error) {
  TileCalib calib;
  const double targetCpu = p.targetCpuSeconds * cpuFactor;
  calib.runtimeScale = targetCpu / baseTileCpuSeconds(p);
  const double targetTotalBytes =
      p.targetCcr * p.referenceBandwidthBytesPerSec * targetCpu;
  const double needed = targetTotalBytes - fixedTileBytes(p);
  if (!(needed > 0.0)) {
    if (error)
      *error =
          "CCR calibration infeasible: target data volume does not cover "
          "the tile's fixed files (tileDegrees too small or jitter too "
          "large)";
    return calib;
  }
  calib.intermediateBytes =
      Bytes(needed / (4.0 * static_cast<double>(p.imageCount())));
  return calib;
}

std::string tilePrefix(std::uint64_t tile, bool slash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "t%05llu%s",
                static_cast<unsigned long long>(tile), slash ? "/" : "");
  return buf;
}

/// Emit one calibrated Montage tile into `sink` — either a legacy
/// dag::Workflow (reference path) or a dag::WorkflowBuilder (streaming
/// path); both expose the same add/bind vocabulary.  The emission order
/// mirrors buildMontageWorkflow stage by stage and satisfies the builder's
/// streaming contract (bindings on the newest task, producers before
/// consumers).
///
/// `leftRaws` + `sharedK`: ids of the left neighbour's n raw images inside
/// the same sink; the tile's first sharedK raws alias the neighbour's last
/// sharedK (the overlapping sky strip) instead of adding fresh files.
/// `rawsOut` receives this tile's n raw ids for the next tile.
template <class Sink>
void emitTile(Sink& sink, const montage::MontageParams& p,
              const std::vector<std::pair<int, int>>& pairs,
              const TileCalib& calib, const std::string& prefix,
              const std::vector<FileId>* leftRaws, std::size_t sharedK,
              std::vector<FileId>* rawsOut, double releaseSeconds) {
  using montage::baseRuntimeSeconds;
  using montage::TaskType;
  using montage::typeName;

  const std::size_t n = static_cast<std::size_t>(p.imageCount());
  std::string buf;
  auto plain = [&](const char* name) -> const std::string& {
    buf.assign(prefix);
    buf.append(name);
    return buf;
  };
  // "<prefix><stem>_%05d<suffix>", without a printf per name.
  auto indexed = [&](const char* stem, std::size_t i,
                     const char* suffix) -> const std::string& {
    char digits[20];
    const std::size_t len = static_cast<std::size_t>(
        std::to_chars(digits, digits + sizeof digits, i).ptr - digits);
    buf.assign(prefix);
    buf.append(stem);
    buf.push_back('_');
    if (len < 5) buf.append(5 - len, '0');
    buf.append(digits, len);
    buf.append(suffix);
    return buf;
  };
  auto runtime = [&](TaskType type) {
    return baseRuntimeSeconds(type) * calib.runtimeScale;
  };

  // -- files staged in from the archive -------------------------------------
  const FileId header = sink.addFile(plain("region.hdr"), p.headerBytes);
  std::vector<FileId> raws(n);
  for (std::size_t i = 0; i < n; ++i)
    raws[i] = (i < sharedK && leftRaws)
                  ? (*leftRaws)[leftRaws->size() - sharedK + i]
                  : sink.addFile(indexed("2mass", i, ".fits"),
                                 p.inputImageBytes);

  // -- level 1: mProject ------------------------------------------------------
  std::vector<FileId> projImages(n);
  std::vector<FileId> projAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = sink.addTask(indexed("mProject", i, ""),
                                  typeName(TaskType::mProject),
                                  runtime(TaskType::mProject));
    sink.addInput(t, raws[i]);
    sink.addInput(t, header);
    projImages[i] =
        sink.addFile(indexed("proj", i, ".fits"), calib.intermediateBytes);
    projAreas[i] = sink.addFile(indexed("proj", i, "_area.fits"),
                                calib.intermediateBytes);
    sink.addOutput(t, projImages[i]);
    sink.addOutput(t, projAreas[i]);
    if (releaseSeconds > 0.0) sink.setEarliestStart(t, releaseSeconds);
  }

  // -- level 2: mDiffFit over overlapping pairs -------------------------------
  std::vector<FileId> fitFiles(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const TaskId t = sink.addTask(indexed("mDiffFit", k, ""),
                                  typeName(TaskType::mDiffFit),
                                  runtime(TaskType::mDiffFit));
    sink.addInput(t, projImages[static_cast<std::size_t>(pairs[k].first)]);
    sink.addInput(t, projImages[static_cast<std::size_t>(pairs[k].second)]);
    fitFiles[k] = sink.addFile(indexed("fit", k, ".txt"), p.textFileBytes);
    sink.addOutput(t, fitFiles[k]);
  }

  // -- level 3/4: mConcatFit, mBgModel ---------------------------------------
  const TaskId concat =
      sink.addTask(plain("mConcatFit"), typeName(TaskType::mConcatFit),
                   runtime(TaskType::mConcatFit));
  for (FileId f : fitFiles) sink.addInput(concat, f);
  const FileId fitsTbl = sink.addFile(plain("fits.tbl"), p.textFileBytes);
  sink.addOutput(concat, fitsTbl);

  const TaskId bgModel =
      sink.addTask(plain("mBgModel"), typeName(TaskType::mBgModel),
                   runtime(TaskType::mBgModel));
  sink.addInput(bgModel, fitsTbl);
  const FileId corrections =
      sink.addFile(plain("corrections.tbl"), p.textFileBytes);
  sink.addOutput(bgModel, corrections);

  // -- level 5: mBackground ----------------------------------------------------
  std::vector<FileId> corrImages(n);
  std::vector<FileId> corrAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = sink.addTask(indexed("mBackground", i, ""),
                                  typeName(TaskType::mBackground),
                                  runtime(TaskType::mBackground));
    sink.addInput(t, projImages[i]);
    sink.addInput(t, projAreas[i]);
    sink.addInput(t, corrections);
    corrImages[i] =
        sink.addFile(indexed("corr", i, ".fits"), calib.intermediateBytes);
    corrAreas[i] = sink.addFile(indexed("corr", i, "_area.fits"),
                                calib.intermediateBytes);
    sink.addOutput(t, corrImages[i]);
    sink.addOutput(t, corrAreas[i]);
  }

  // -- level 6/7: mImgtbl, mAdd ------------------------------------------------
  const TaskId imgtbl = sink.addTask(
      plain("mImgtbl"), typeName(TaskType::mImgtbl), runtime(TaskType::mImgtbl));
  for (std::size_t i = 0; i < n; ++i) sink.addInput(imgtbl, corrImages[i]);
  const FileId imagesTbl = sink.addFile(plain("cimages.tbl"), p.textFileBytes);
  sink.addOutput(imgtbl, imagesTbl);

  const TaskId add = sink.addTask(plain("mAdd"), typeName(TaskType::mAdd),
                                  runtime(TaskType::mAdd));
  for (std::size_t i = 0; i < n; ++i) {
    sink.addInput(add, corrImages[i]);
    sink.addInput(add, corrAreas[i]);
  }
  sink.addInput(add, imagesTbl);
  sink.addInput(add, header);
  const FileId mosaic = sink.addFile(plain("mosaic.fits"), p.mosaicBytes);
  sink.addOutput(add, mosaic);
  sink.markExplicitOutput(mosaic);

  // -- level 8/9: mShrink, mJPEG ----------------------------------------------
  const TaskId shrink = sink.addTask(
      plain("mShrink"), typeName(TaskType::mShrink), runtime(TaskType::mShrink));
  sink.addInput(shrink, mosaic);
  const FileId shrunk = sink.addFile(plain("mosaic_small.fits"),
                                     p.mosaicBytes * p.shrinkFactor);
  sink.addOutput(shrink, shrunk);

  const TaskId jpeg = sink.addTask(plain("mJPEG"), typeName(TaskType::mJPEG),
                                   runtime(TaskType::mJPEG));
  sink.addInput(jpeg, shrunk);
  const FileId preview = sink.addFile(plain("mosaic.jpg"), p.jpegBytes);
  sink.addOutput(jpeg, preview);

  if (rawsOut) *rawsOut = std::move(raws);
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
  const auto pairs = montage::overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  const std::uint64_t tiles = lastTile - firstTile;
  const std::size_t k = static_cast<std::size_t>(counts.sharedRawsPerEdge);

  dag::WorkflowBuilder builder(std::move(name));
  // Average name ~= 7-char tile prefix + ~17-char stem; 28 covers both
  // comfortably without measuring.
  builder.reserve(tiles * counts.tasksPerTile, tiles * counts.filesPerTile,
                  tiles * (counts.inputEdges / counts.tiles),
                  tiles * (counts.outputEdges / counts.tiles),
                  tiles * (counts.tasksPerTile + counts.filesPerTile) * 28);

  std::vector<FileId> prevRaws;
  std::vector<FileId> raws;
  std::string error;
  for (std::uint64_t t = firstTile; t < lastTile; ++t) {
    const TileCalib calib =
        computeTileCalib(p, jitterFactor(config, t), &error);
    if (!error.empty())
      throw std::invalid_argument("survey: tile " + std::to_string(t) + ": " +
                                  error);
    const bool shareLeft = k > 0 && t % counts.cols != 0 && t > firstTile;
    emitTile(builder, p, pairs, calib, tilePrefix(t, true),
             shareLeft ? &prevRaws : nullptr, shareLeft ? k : 0, &raws,
             static_cast<double>(t) * config.releaseIntervalSeconds);
    std::swap(prevRaws, raws);
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
  const std::uint64_t filesPerTile =
      5ull * static_cast<std::uint64_t>(p.imageCount()) +
      static_cast<std::uint64_t>(p.diffCount) + 7;
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
  std::string error;
  computeTileCalib(p, 1.0 - config.runtimeJitterFraction, &error);
  return error;
}

SurveyCounts surveyCounts(const SurveyConfig& config) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) throw std::invalid_argument("survey: " + error);

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const std::uint64_t n = static_cast<std::uint64_t>(p.imageCount());
  const std::uint64_t d = static_cast<std::uint64_t>(p.diffCount);

  SurveyCounts c;
  c.tiles = config.tiles;
  c.cols = config.tileCols != 0
               ? config.tileCols
               : static_cast<std::uint32_t>(std::ceil(std::sqrt(
                     static_cast<double>(config.tiles))));
  c.rows = static_cast<std::uint32_t>((config.tiles + c.cols - 1) / c.cols);
  // Header + n raws + 2n proj + 2n corr + d fit files + fits/corrections/
  // cimages tables + mosaic + shrunk mosaic + preview.
  c.tasksPerTile = 2 * n + d + 6;
  c.filesPerTile = 5 * n + d + 7;
  c.sharedRawsPerEdge =
      static_cast<std::uint64_t>(std::llround(config.overlapFraction *
                                              static_cast<double>(n)));
  // Every tile except the first of each (possibly partial) row has a left
  // neighbour to share with.
  c.sharedFiles = c.sharedRawsPerEdge * (c.tiles - c.rows);
  c.tasks = c.tiles * c.tasksPerTile;
  c.files = c.tiles * c.filesPerTile - c.sharedFiles;
  // Per tile: mProject 2n, mDiffFit 2d, mConcatFit d, mBgModel 1,
  // mBackground 3n, mImgtbl n, mAdd 2n+2, mShrink 1, mJPEG 1.
  c.inputEdges = c.tiles * (8 * n + 3 * d + 5);
  // Every non-external file (everything but the header and the raws) is
  // declared exactly once.
  c.outputEdges = c.tiles * (4 * n + d + 6);
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

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const auto pairs = montage::overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  std::string calibError;
  const TileCalib calib =
      computeTileCalib(p, jitterFactor(config, tile), &calibError);
  if (!calibError.empty())
    throw std::invalid_argument("survey: tile " + std::to_string(tile) + ": " +
                                calibError);

  dag::Workflow wf(tilePrefix(tile, false));
  wf.reserve(static_cast<std::size_t>(p.taskCount()),
             5 * static_cast<std::size_t>(p.imageCount()) +
                 static_cast<std::size_t>(p.diffCount) + 7);
  emitTile(wf, p, pairs, calib, std::string(), nullptr, 0, nullptr, 0.0);
  wf.finalize();
  return wf;
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
