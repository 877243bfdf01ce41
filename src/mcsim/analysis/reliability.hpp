// The reliability experiment: cost vs. processor MTBF across the paper's
// three data-management modes.
//
// The paper's §8 names resource reliability as the open concern its cost
// model ignores.  This driver quantifies it: for each mode and each MTBF in
// the sweep, the workflow runs under the spot-style crash model (faults.hpp)
// with a retry policy, and the usage-billed cost is compared against the
// same mode's fault-free baseline.  The delta is the dollar price of
// unreliability — wasted compute, repeated S3 transfers (remote I/O
// re-stages inputs on every crash) and re-accumulated storage.
//
// Deterministic end to end: every point is seeded through FaultConfig::seed,
// so the same arguments always reproduce the same table.
#pragma once

#include <cstddef>
#include <vector>

#include "mcsim/cloud/pricing.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/faults/faults.hpp"
#include "mcsim/util/table.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::runner {
class JobQueue;
}

namespace mcsim::analysis {

/// Sweep parameters: which MTBF values to visit and how crashed tasks retry.
struct ReliabilityConfig {
  /// Processor MTBF values (seconds) to sweep, in addition to the implicit
  /// fault-free baseline row per mode.  Must be positive.
  std::vector<double> mtbfSeconds;
  faults::RetryPolicy retry;
  std::uint64_t faultSeed = 1;
  /// 0 = the workflow's max parallelism (as dataModeComparison).
  int processorOverride = 0;
  /// Every engine knob except mode, processors and faults.
  engine::EngineConfig base;
  /// Observes every scenario; streams merge deterministically in sweep
  /// order regardless of the queue.  Borrowed; may be nullptr.
  obs::Sink* observer = nullptr;
  /// Runs the sweep's scenarios; its workers and memo cache apply (the
  /// per-mode fault-free baselines repeat across reliability sweeps sharing
  /// a cached queue, so only the faulty points re-simulate).  nullptr =
  /// inline, serial and uncached.  Borrowed.
  runner::JobQueue* queue = nullptr;
};

/// One (mode, MTBF) point.  mtbfSeconds == 0 marks the fault-free baseline.
struct ReliabilityPoint {
  engine::DataMode mode = engine::DataMode::Regular;
  double mtbfSeconds = 0.0;
  double makespanSeconds = 0.0;
  std::size_t processorCrashes = 0;
  std::size_t taskRetries = 0;
  std::size_t tasksFailed = 0;
  std::size_t tasksAbandoned = 0;
  double wastedCpuSeconds = 0.0;
  bool completed = true;  ///< Every task finished (no exhausted budgets).

  Money cpuCost;      ///< Usage-billed: includes wasted attempt time.
  Money storageCost;
  Money transferCost;  ///< In + out; remote I/O re-staging shows up here.
  Money totalCost;
  Money faultFreeTotal;  ///< The same mode's baseline total.

  /// Fractional cost overhead vs. the fault-free run of the same mode.
  double costOverheadFraction() const {
    return faultFreeTotal.value() > 0.0
               ? (totalCost - faultFreeTotal).value() / faultFreeTotal.value()
               : 0.0;
  }
};

/// Run the sweep: for each of the three modes (RemoteIO, Regular,
/// DynamicCleanup, in that order), one fault-free baseline row followed by
/// one row per MTBF in `config.mtbfSeconds`.  All knobs — including the
/// base engine config, the runner `queue` and telemetry `observer` — live
/// on the config struct.
std::vector<ReliabilityPoint> reliabilitySweep(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const ReliabilityConfig& config);

Table reliabilityTable(const std::vector<ReliabilityPoint>& points);

}  // namespace mcsim::analysis
