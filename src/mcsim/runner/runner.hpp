// Scenario vocabulary shared by every batch: the spec of one independent,
// single-threaded, deterministic simulation, its result, and the pure seed
// derivation that keeps results independent of scheduling.
//
// Batches execute on runner::JobQueue (runner/jobs.hpp), the one way to run
// scenarios.  The design follows the GridSim/CloudSim lineage of
// discrete-event cloud simulators: parallelism lives *between* whole
// experiments, never inside one event loop.  Every evaluation figure in the
// paper is a sweep of independent runs, so this is exactly the granularity
// at which the hardware can be saturated without giving up
// bit-reproducibility (see DESIGN.md "Concurrency model").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/event.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::runner {

/// The worker-pool default: one worker per hardware thread (never 0).
int defaultJobs();

/// Pure 64-bit mix (splitmix64) of a base seed and a scenario index.
/// Distinct indices give statistically independent seeds, and the result
/// depends only on (baseSeed, scenarioIndex) — not on worker assignment or
/// completion order.
std::uint64_t deriveSeed(std::uint64_t baseSeed, std::uint64_t scenarioIndex);

/// One independent simulation: a workflow reference plus the full platform
/// configuration (data mode, processors, link, faults, seed...).  The
/// workflow is borrowed and must outlive the run; `config.observer` must be
/// nullptr — per-scenario observation is managed by the JobQueue (a sink
/// shared across concurrent scenarios would race).
struct ScenarioSpec {
  const dag::Workflow* workflow = nullptr;
  engine::EngineConfig config;
  std::string label;  ///< Optional; carried through to the result.
};

/// The outcome of one scenario, at its spec's index.
struct ScenarioResult {
  std::size_t index = 0;
  std::string label;
  engine::ExecutionResult result;
  /// The scenario's full event stream, retained only when
  /// JobOptions::keepEvents is set.
  std::vector<obs::Event> events;
  /// True if this scenario was served without simulating — from the
  /// queue's memo cache or by deduplicating against an identical scenario
  /// earlier in the same job.  Always false without a cache.
  bool fromCache = false;
};

}  // namespace mcsim::runner
