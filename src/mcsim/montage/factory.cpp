#include "mcsim/montage/factory.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mcsim::montage {
namespace {

using dag::FileId;
using dag::TaskId;

/// Adjacent image pairs on a cols x rows grid, diagonals included: the most
/// mDiffFit tasks the grid can supply.
int adjacentPairCount(int cols, int rows) {
  return (cols - 1) * rows + cols * (rows - 1) + 2 * (cols - 1) * (rows - 1);
}

/// The first `count` overlapping pairs on the image grid: all
/// right-neighbour pairs, then down, then the two diagonals — the order a
/// plane sweep over the sky would discover overlaps.  `count` is at most
/// adjacentPairCount(cols, rows).
std::vector<std::pair<int, int>> overlapPairs(int cols, int rows, int count) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(adjacentPairCount(cols, rows)));
  auto at = [cols](int c, int r) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      pairs.emplace_back(at(c, r), at(c + 1, r));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 0; c < cols; ++c)
      pairs.emplace_back(at(c, r), at(c, r + 1));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      pairs.emplace_back(at(c, r), at(c + 1, r + 1));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 1; c < cols; ++c)
      pairs.emplace_back(at(c, r), at(c - 1, r + 1));
  pairs.resize(static_cast<std::size_t>(count));
  return pairs;
}

void requireValid(const MontageParams& p) {
  if (p.gridCols < 2 || p.gridRows < 2)
    throw std::invalid_argument("montage: grid must be at least 2x2");
  if (p.diffCount < 1)
    throw std::invalid_argument("montage: diffCount must be >= 1");
  const int adjacencies = adjacentPairCount(p.gridCols, p.gridRows);
  if (p.diffCount > adjacencies)
    throw std::invalid_argument(
        "montage: grid too small for requested diffCount (" +
        std::to_string(adjacencies) + " adjacencies < " +
        std::to_string(p.diffCount) + ")");
  if (!(p.targetCpuSeconds > 0.0))
    throw std::invalid_argument("montage: targetCpuSeconds must be positive");
  if (!(p.targetCcr > 0.0))
    throw std::invalid_argument("montage: targetCcr must be positive");
}

/// The closed-form calibration: a uniform runtime scale that makes the
/// runtimes sum to the CPU target, and one size for the 4n intermediate
/// images that makes total bytes = targetCcr * B * that target with every
/// other file at its fixed size.
struct Calibration {
  double runtimeScale = 1.0;
  Bytes intermediateBytes;
};

/// Σ base runtimes of one mosaic's tasks.
double baseCpuSeconds(const MontageParams& p) {
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

/// Header + raws + (d fit files + fits/corrections/cimages tables) + mosaic
/// + shrunk mosaic + preview: every byte the CCR calibration does not size.
double fixedFileBytes(const MontageParams& p) {
  const double n = static_cast<double>(p.imageCount());
  return p.headerBytes.value() + n * p.inputImageBytes.value() +
         static_cast<double>(p.diffCount + 3) * p.textFileBytes.value() +
         p.mosaicBytes.value() * (1.0 + p.shrinkFactor) + p.jpegBytes.value();
}

/// Empty `error` on success.
Calibration calibrate(const MontageParams& p, double cpuFactor,
                      std::string& error) {
  Calibration calib;
  const double targetCpu = p.targetCpuSeconds * cpuFactor;
  calib.runtimeScale = targetCpu / baseCpuSeconds(p);
  const double targetTotalBytes =
      p.targetCcr * p.referenceBandwidthBytesPerSec * targetCpu;
  const double needed = targetTotalBytes - fixedFileBytes(p);
  if (!(needed > 0.0)) {
    error =
        "CCR calibration infeasible: target data volume does not cover the "
        "mosaic's fixed files";
    return calib;
  }
  calib.intermediateBytes =
      Bytes(needed / (4.0 * static_cast<double>(p.imageCount())));
  return calib;
}

}  // namespace

MontageParams montage1DegreeParams() {
  MontageParams p;
  p.name = "montage-1deg";
  p.degrees = 1.0;
  p.gridCols = 9;
  p.gridRows = 5;                       // 45 images
  p.diffCount = 107;                    // 2*45 + 107 + 6 = 203 tasks
  p.mosaicBytes = Bytes::fromMB(173.46);
  p.targetCpuSeconds = 5.6 * kSecondsPerHour;   // $0.56 at $0.1/CPU-h
  p.targetCcr = 0.053;
  return p;
}

MontageParams montage2DegreeParams() {
  MontageParams p;
  p.name = "montage-2deg";
  p.degrees = 2.0;
  p.gridCols = 15;
  p.gridRows = 11;                      // 165 images
  p.diffCount = 395;                    // 2*165 + 395 + 6 = 731 tasks
  p.mosaicBytes = Bytes::fromMB(557.9);
  p.targetCpuSeconds = 20.3 * kSecondsPerHour;  // $2.03
  p.targetCcr = 0.053;
  return p;
}

MontageParams montage4DegreeParams() {
  MontageParams p;
  p.name = "montage-4deg";
  p.degrees = 4.0;
  p.gridCols = 28;
  p.gridRows = 25;                      // 700 images
  p.diffCount = 1621;                   // 2*700 + 1621 + 6 = 3027 tasks
  p.mosaicBytes = Bytes::fromGB(2.229);
  p.targetCpuSeconds = 84.0 * kSecondsPerHour;  // $8.40
  p.targetCcr = 0.045;
  return p;
}

MontageParams paramsForDegrees(double degrees) {
  if (!(degrees > 0.0))
    throw std::invalid_argument("montage: degrees must be positive");
  // Catalog lookup keyed on the exact user-supplied survey sizes; anything
  // else falls through to interpolation below.
  // mcsim-lint: allow(float-equality)
  if (degrees == 1.0) return montage1DegreeParams();
  if (degrees == 2.0) return montage2DegreeParams();  // mcsim-lint: allow(float-equality)
  if (degrees == 4.0) return montage4DegreeParams();  // mcsim-lint: allow(float-equality)

  MontageParams p;
  p.name = "montage-" + std::to_string(degrees) + "deg";
  p.degrees = degrees;
  // Image count grows with mosaic area (presets: ~44 images per square
  // degree); keep the grid near the presets' column/row aspect.
  const int images = std::max(4, static_cast<int>(std::lround(43.75 * degrees * degrees)));
  int cols = std::max(2, static_cast<int>(std::lround(std::sqrt(images * 1.4))));
  int rows = std::max(2, (images + cols - 1) / cols);
  p.gridCols = cols;
  p.gridRows = rows;
  const int n = p.imageCount();
  // Presets average ~2.35 diffs per image; cap by the grid's adjacency
  // supply (~4 per interior image).
  p.diffCount = std::min(adjacentPairCount(cols, rows),
                         static_cast<int>(std::lround(2.35 * n)));
  // CPU time scales with the number of images (presets: ~448 s per image).
  p.targetCpuSeconds = 448.0 * n;
  // Mosaic bytes scale with area (preset: 173.46 MB per square degree).
  p.mosaicBytes = Bytes::fromMB(173.46 * degrees * degrees);
  // CCR drifts down slightly for larger mosaics (0.053 at <=2 deg, 0.045 at
  // 4 deg); interpolate and clamp.
  const double t = std::clamp((degrees - 2.0) / 2.0, 0.0, 1.0);
  p.targetCcr = 0.053 + t * (0.045 - 0.053);
  return p;
}

std::string calibrationError(const MontageParams& p, double cpuFactor) {
  std::string error;
  calibrate(p, cpuFactor, error);
  return error;
}

std::vector<FileId> emitMosaic(dag::WorkflowBuilder& builder,
                               const MontageParams& p, double cpuFactor,
                               std::string_view prefix, double releaseSeconds,
                               std::span<const FileId> sharedRaws) {
  requireValid(p);
  std::string error;
  const Calibration calib = calibrate(p, cpuFactor, error);
  if (!error.empty()) throw std::invalid_argument("montage: " + error);
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
  auto addTask = [&](const std::string& name, TaskType type) {
    return builder.addTask(name, typeName(type),
                           baseRuntimeSeconds(type) * calib.runtimeScale);
  };

  // -- files staged in from the archive -------------------------------------
  const FileId header = builder.addFile(plain("region.hdr"), p.headerBytes);
  std::vector<FileId> raws(n);
  for (std::size_t i = 0; i < n; ++i)
    raws[i] = i < sharedRaws.size()
                  ? sharedRaws[i]
                  : builder.addFile(indexed("2mass", i, ".fits"),
                                    p.inputImageBytes);

  // -- level 1: mProject ------------------------------------------------------
  // Each reprojection emits the projected image plus its area (coverage)
  // file: half of the intermediate images whose size the CCR sets.
  std::vector<FileId> projImages(n);
  std::vector<FileId> projAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = addTask(indexed("mProject", i, ""), TaskType::mProject);
    builder.addInput(t, raws[i]);
    builder.addInput(t, header);
    projImages[i] =
        builder.addFile(indexed("proj", i, ".fits"), calib.intermediateBytes);
    projAreas[i] = builder.addFile(indexed("proj", i, "_area.fits"),
                                   calib.intermediateBytes);
    builder.addOutput(t, projImages[i]);
    builder.addOutput(t, projAreas[i]);
    if (releaseSeconds > 0.0) builder.setEarliestStart(t, releaseSeconds);
  }

  // -- level 2: mDiffFit over overlapping pairs -------------------------------
  const auto pairs = overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  std::vector<FileId> fitFiles(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const TaskId t = addTask(indexed("mDiffFit", k, ""), TaskType::mDiffFit);
    builder.addInput(t, projImages[static_cast<std::size_t>(pairs[k].first)]);
    builder.addInput(t, projImages[static_cast<std::size_t>(pairs[k].second)]);
    fitFiles[k] = builder.addFile(indexed("fit", k, ".txt"), p.textFileBytes);
    builder.addOutput(t, fitFiles[k]);
  }

  // -- level 3/4: mConcatFit, mBgModel ---------------------------------------
  const TaskId concat = addTask(plain("mConcatFit"), TaskType::mConcatFit);
  for (FileId f : fitFiles) builder.addInput(concat, f);
  const FileId fitsTbl = builder.addFile(plain("fits.tbl"), p.textFileBytes);
  builder.addOutput(concat, fitsTbl);

  const TaskId bgModel = addTask(plain("mBgModel"), TaskType::mBgModel);
  builder.addInput(bgModel, fitsTbl);
  const FileId corrections =
      builder.addFile(plain("corrections.tbl"), p.textFileBytes);
  builder.addOutput(bgModel, corrections);

  // -- level 5: mBackground ----------------------------------------------------
  std::vector<FileId> corrImages(n);
  std::vector<FileId> corrAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t =
        addTask(indexed("mBackground", i, ""), TaskType::mBackground);
    builder.addInput(t, projImages[i]);
    builder.addInput(t, projAreas[i]);
    builder.addInput(t, corrections);
    corrImages[i] =
        builder.addFile(indexed("corr", i, ".fits"), calib.intermediateBytes);
    corrAreas[i] = builder.addFile(indexed("corr", i, "_area.fits"),
                                   calib.intermediateBytes);
    builder.addOutput(t, corrImages[i]);
    builder.addOutput(t, corrAreas[i]);
  }

  // -- level 6/7: mImgtbl, mAdd ------------------------------------------------
  const TaskId imgtbl = addTask(plain("mImgtbl"), TaskType::mImgtbl);
  for (std::size_t i = 0; i < n; ++i) builder.addInput(imgtbl, corrImages[i]);
  const FileId imagesTbl =
      builder.addFile(plain("cimages.tbl"), p.textFileBytes);
  builder.addOutput(imgtbl, imagesTbl);

  const TaskId add = addTask(plain("mAdd"), TaskType::mAdd);
  for (std::size_t i = 0; i < n; ++i) {
    builder.addInput(add, corrImages[i]);
    builder.addInput(add, corrAreas[i]);
  }
  builder.addInput(add, imagesTbl);
  builder.addInput(add, header);
  const FileId mosaic = builder.addFile(plain("mosaic.fits"), p.mosaicBytes);
  builder.addOutput(add, mosaic);
  // The full-resolution mosaic is the user's product even though mShrink
  // also reads it.
  builder.markExplicitOutput(mosaic);

  // -- level 8/9: mShrink, mJPEG ----------------------------------------------
  const TaskId shrink = addTask(plain("mShrink"), TaskType::mShrink);
  builder.addInput(shrink, mosaic);
  const FileId shrunk = builder.addFile(plain("mosaic_small.fits"),
                                        p.mosaicBytes * p.shrinkFactor);
  builder.addOutput(shrink, shrunk);

  const TaskId jpeg = addTask(plain("mJPEG"), TaskType::mJPEG);
  builder.addInput(jpeg, shrunk);
  const FileId preview = builder.addFile(plain("mosaic.jpg"), p.jpegBytes);
  builder.addOutput(jpeg, preview);

  return raws;
}

dag::Workflow buildMontageWorkflow(const MontageParams& p) {
  requireValid(p);
  dag::WorkflowBuilder builder(p.name);
  builder.reserve(static_cast<std::size_t>(p.taskCount()),
                  static_cast<std::size_t>(p.fileCount()),
                  static_cast<std::size_t>(p.inputEdgeCount()),
                  static_cast<std::size_t>(p.outputEdgeCount()));
  emitMosaic(builder, p, 1.0, "", 0.0, {});
  dag::Workflow wf = builder.build();
  if (static_cast<int>(wf.taskCount()) != p.taskCount() ||
      static_cast<int>(wf.fileCount()) != p.fileCount())
    throw std::logic_error("montage: built counts mismatch (generator bug)");
  return wf;
}

dag::Workflow buildMontageWorkflow(double degrees) {
  return buildMontageWorkflow(paramsForDegrees(degrees));
}

}  // namespace mcsim::montage
