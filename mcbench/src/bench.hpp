// Shared types of the mcsim end-to-end benchmark (see ../README.md).
//
// Every workload has the same shape: a bring-up (worker pool or daemon,
// provider catalog, fixed inputs, one warm-up operation), then a timed loop
// of operations.  An operation takes scenarios through the runner, the memo
// cache and the engine, prices the results and renders them (as the figure
// tables, or as the serve protocol's result JSON).  Traced runs replace the
// runner with the benchmark's own serial calls into each layer, timed from
// outside the library, so the layer shares of one operation can be read
// off.  The traced run does different work than the untraced one (serial
// instead of pooled), so the difference between the two is not the cost of
// tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mcbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Wall time one operation spent in each layer, measured around the
/// benchmark's own calls into that layer.
struct LayerTimes {
  double dag = 0.0;     ///< Workflow construction (montage, survey, specs).
  double memo = 0.0;    ///< Scenario fingerprinting and cache lookup/insert.
  double engine = 0.0;  ///< simulateWorkflow.
  double price = 0.0;   ///< computeCost.
  double render = 0.0;  ///< Result rendering (tables, or JSON and back).

  double total() const { return dag + memo + engine + price + render; }
};

/// Run `fn` and add its wall time to `slot`; returns what `fn` returns.
template <class F>
auto timed(double& slot, F&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    fn();
    slot += secondsSince(t0);
  } else {
    auto out = fn();
    slot += secondsSince(t0);
    return out;
  }
}

/// What one benchmark run measured.
struct Report {
  std::vector<double> setupSeconds;  ///< One per bring-up.
  std::vector<double> opSeconds;     ///< One per operation.
  std::vector<LayerTimes> opLayers;  ///< Traced runs: one per operation.
  double windowSeconds = 0.0;        ///< Wall time of the timed loop.
  std::uint64_t tasksDelivered = 0;  ///< Σ workflow tasks over all results.
  std::uint64_t failed = 0;          ///< Operations that raised or were refused.
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t engineRuns = 0;   ///< Traced runs: simulateWorkflow calls.
  std::uint64_t engineTasks = 0;  ///< Traced runs: tasks those calls ran.
  std::vector<std::string> errors;  ///< Output checks that failed.

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 64) errors.push_back(what);
  }
};

/// Bring-ups per run; set-up time is reported as their median.
inline constexpr int kBringUps = 9;

/// Construct a workload kBringUps times, timing each construction, and keep
/// the last one for the timed loop.
template <class W>
std::unique_ptr<W> bringUp(const Options& options, Report& report) {
  std::unique_ptr<W> workload;
  for (int i = 0; i < kBringUps; ++i) {
    workload.reset();
    const auto t0 = Clock::now();
    workload = std::make_unique<W>(options);
    report.setupSeconds.push_back(secondsSince(t0));
  }
  return workload;
}

Report runPaperSweep(const Options& options);
Report runSurvey(const Options& options);
Report runServeMixed(const Options& options);

}  // namespace mcbench
