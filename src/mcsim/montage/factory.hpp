// Montage workflow generator, calibrated against the paper's published
// aggregates.
//
// The paper used real mDAG-generated workflows with file sizes and runtimes
// "taken from real runs" (§5); those artifacts are not published, so this
// factory generates workflows with the documented structure and *solves* the
// free parameters against every aggregate the paper does publish:
//
//   * exact task counts: 203 / 731 / 3,027 (1/2/4 degrees),
//   * total CPU cost at $0.1/CPU-hour: $0.56 / $2.03 / $8.40, i.e. total
//     runtimes of 5.6 h / 20.3 h / 84 h (a uniform runtime scale),
//   * mosaic sizes: 173.46 MB / 557.9 MB / 2.229 GB (fixed),
//   * CCR at 10 Mbps: 0.053 / 0.053 / 0.045 (one size for every
//     intermediate image file, with inputs and products held fixed).
//
// Both are solved in closed form before anything is emitted, so every
// runtime and size is written once, final.  One emitter writes every
// Montage DAG: emitMosaic appends a calibrated mosaic to a
// dag::WorkflowBuilder.  buildMontageWorkflow emits one and builds it; the
// survey generator (workflows/survey) emits one per tile.
//
// See DESIGN.md's substitution table for why matching these aggregates
// preserves every result in the evaluation.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/montage/catalog.hpp"

namespace mcsim::montage {

/// The user↔cloud bandwidth the paper fixes for CCR purposes: 10 Mbps.
inline constexpr double kReferenceBandwidthBytesPerSec = 10e6 / 8.0;

/// Everything that determines a generated Montage workflow.  Obtain from a
/// preset (below) and tweak, or fill in manually for custom studies.
struct MontageParams {
  std::string name = "montage";
  double degrees = 1.0;  ///< Mosaic edge length in degrees.

  // -- structure -------------------------------------------------------------
  int gridCols = 9;    ///< Input images arranged on a grid...
  int gridRows = 5;    ///< ...gridCols x gridRows = mProject count.
  int diffCount = 107; ///< mDiffFit tasks (overlapping image pairs).

  // -- fixed file sizes ------------------------------------------------------
  /// One 2MASS plate.  5 MB makes the 2-degree stage-in cost ~= the paper's
  /// $0.10 pre-staged-vs-on-demand gap (Question 2b).
  Bytes inputImageBytes = Bytes::fromMB(5.0);
  Bytes headerBytes = Bytes::fromKB(50.0);     ///< Template header (all
                                               ///< level-1 tasks read it).
  Bytes textFileBytes = Bytes::fromKB(10.0);   ///< Fit/tbl metadata files.
  Bytes mosaicBytes = Bytes::fromMB(173.46);   ///< Final mosaic (paper §6 Q3).
  Bytes jpegBytes = Bytes::fromMB(2.0);
  /// mShrink reduces the mosaic by this linear factor for the preview.
  double shrinkFactor = 0.01;

  // -- calibration targets ---------------------------------------------------
  // The intermediate images (projected and background-corrected FITS plus
  // their area files) take whatever size meets targetCcr.
  double targetCpuSeconds = 5.6 * kSecondsPerHour;
  double targetCcr = 0.053;
  double referenceBandwidthBytesPerSec = kReferenceBandwidthBytesPerSec;

  // -- closed-form size of one mosaic (n images, d diffs) ---------------------
  int imageCount() const { return gridCols * gridRows; }
  /// 2n mProject/mBackground + d mDiffFit + 6 singletons.
  int taskCount() const { return 2 * imageCount() + diffCount + 6; }
  /// Header, n raws, 4n intermediates, d fits, 3 tables, mosaic, shrunk
  /// mosaic and preview.
  int fileCount() const { return 5 * imageCount() + diffCount + 7; }
  /// Σ input bindings: mProject 2n, mDiffFit 2d, mConcatFit d, mBgModel 1,
  /// mBackground 3n, mImgtbl n, mAdd 2n+2, mShrink 1, mJPEG 1.
  int inputEdgeCount() const { return 8 * imageCount() + 3 * diffCount + 5; }
  /// Σ output bindings: every file but the header and the raws, once.
  int outputEdgeCount() const { return 4 * imageCount() + diffCount + 6; }
};

/// Presets matching the paper's three workflows exactly.
MontageParams montage1DegreeParams();
MontageParams montage2DegreeParams();
MontageParams montage4DegreeParams();

/// Parameterization for an arbitrary mosaic size, extrapolating the paper's
/// presets (used for the 6-degree plates mentioned in Question 3).
MontageParams paramsForDegrees(double degrees);

/// Empty if a mosaic of `params` with its CPU target multiplied by
/// `cpuFactor` can be calibrated; otherwise why not (the CCR target's data
/// volume does not cover the fixed files).
std::string calibrationError(const MontageParams& params, double cpuFactor);

/// Append one calibrated mosaic to `builder`, stage by stage in level order
/// (the builder's streaming order).  Every task and file name starts
/// with `prefix`; the mProject tasks may not start before `releaseSeconds`;
/// the runtimes sum to targetCpuSeconds * cpuFactor and the intermediate
/// sizes follow, so the CCR holds.  The mosaic's first sharedRaws.size()
/// raw images are those files, the overlapping strip a left neighbour
/// already added, instead of new ones.  Returns the ids of its n raw images.
/// Throws std::invalid_argument for inconsistent parameters or an
/// infeasible calibration (calibrationError).
std::vector<dag::FileId> emitMosaic(dag::WorkflowBuilder& builder,
                                    const MontageParams& params,
                                    double cpuFactor, std::string_view prefix,
                                    double releaseSeconds,
                                    std::span<const dag::FileId> sharedRaws);

/// Emit one mosaic into a builder reserved from the closed-form counts and
/// build it.  Postconditions (tested): taskCount() tasks and fileCount()
/// files; Σ runtimes == targetCpuSeconds and ccr(referenceBandwidth) ==
/// targetCcr, to rounding; the mosaic file has mosaicBytes.  Throws
/// std::invalid_argument for inconsistent parameters (e.g. a CCR target too
/// small to cover the fixed files).
dag::Workflow buildMontageWorkflow(const MontageParams& params);

/// Convenience: preset lookup by degrees (1, 2 or 4), else generic.
dag::Workflow buildMontageWorkflow(double degrees);

}  // namespace mcsim::montage
