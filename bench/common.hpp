// Shared plumbing for the figure-reproduction binaries: each bench prints
// one of the paper's figures/tables as an ASCII table (and a CSV block when
// invoked with --csv), using the analysis drivers so tests and benches
// exercise identical code.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "mcsim/analysis/economics.hpp"
#include "mcsim/analysis/experiments.hpp"
#include "mcsim/analysis/report.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::bench {

inline bool wantCsv(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--csv") return true;
  return false;
}

/// `--jobs N` from argv: runner worker threads for the sweeps a bench
/// drives.  Default all hardware threads; 0 = inline (serial) queue.
inline int parseJobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--jobs") return std::stoi(argv[i + 1]);
  return runner::defaultJobs();
}

/// The bench process's shared JobQueue: one persistent worker pool reused
/// by every sweep a bench drives, instead of a transient pool per call.
/// Built on first use with `workers` threads; later calls ignore the
/// argument (benches parse --jobs once, up front).
runner::JobQueue& sharedQueue(int workers);

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss; 0 where unsupported).  Benches report it alongside wall
/// times so memory regressions show up in the committed BENCH_*.json.
std::size_t peakRssBytes();

/// Print the Question-1 provisioning figure (Figs 4/5/6) for one preset.
void printProvisioningFigure(const std::string& figureId, double degrees,
                             const std::vector<analysis::PaperAnchor>& anchors,
                             bool csv, int jobs = 0);

/// Print the data-management figure (Figs 7/8/9) for one preset.
void printDataModeFigure(const std::string& figureId, double degrees,
                         bool csv, int jobs = 0);

}  // namespace mcsim::bench
