// Shared plumbing for the figure-reproduction binaries: each bench prints
// one of the paper's figures/tables as an ASCII table (and a CSV block when
// invoked with --csv), using the analysis drivers so tests and benches
// exercise identical code.
#pragma once

#include <iostream>
#include <set>
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

/// What a driver reads from argv: `--jobs N`, runner worker threads for
/// its sweeps (default all hardware threads; 0 = inline, serial queue),
/// and `--csv`.
struct Args {
  int jobs = runner::defaultJobs();
  bool csv = false;
};

/// argv, taking only the options the driver reads: "jobs" in `values`,
/// "csv" in `flags`.  Any other argument, or a bad --jobs, exits 1 with a
/// message naming it.
Args parseArgs(int argc, char** argv, std::set<std::string> values,
               std::set<std::string> flags);

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
