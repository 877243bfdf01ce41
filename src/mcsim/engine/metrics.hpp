// Execution metrics and cost computation.
//
// One `ExecutionResult` captures the paper's four simulation metrics (§5):
// workflow execution time, data transferred in, data transferred out, and
// storage used (area under the resident-bytes curve) — plus the CPU
// accounting needed for the two billing schemes of Questions 1 and 2.
#pragma once

#include <cstddef>
#include <string_view>

#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/util/expected.hpp"
#include "mcsim/util/units.hpp"
#include "mcsim/util/usage_curve.hpp"

namespace mcsim::engine {

/// The paper's three data-management execution modes (§3).
enum class DataMode {
  RemoteIO,        ///< Stage in/out around every task; nothing persists.
  Regular,         ///< Everything persists on shared storage until the end.
  DynamicCleanup,  ///< Files deleted as soon as their last consumer is done.
};

/// The canonical spelling: "remote-io", "regular" or "cleanup".
const char* dataModeName(DataMode mode);

/// The mode `name` spells: a dataModeName, or one of the aliases
/// "remote_io", "dynamic-cleanup" and "dynamic_cleanup".  Anything else is
/// an error naming the canonical spellings.
Expected<DataMode> parseDataMode(std::string_view name);

/// Everything measured during one simulated execution.
struct ExecutionResult {
  DataMode mode = DataMode::Regular;
  int processors = 0;

  double makespanSeconds = 0.0;       ///< Submission to final stage-out (incl.
                                      ///< VM startup/teardown if configured).
  double cpuBusySeconds = 0.0;        ///< Σ executed task runtimes, in
                                      ///< task-id order.
  double processorBusySeconds = 0.0;  ///< Integral of claimed processors
                                      ///< (remote I/O holds during transfers).
  Bytes bytesIn;                      ///< User/archive -> cloud storage
                                      ///< (Remote I/O: in task-id order).
  Bytes bytesOut;                     ///< Cloud storage -> user (Remote
                                      ///< I/O: in task-id order).
  double storageByteSeconds = 0.0;    ///< Area under resident-bytes curve.
  Bytes peakStorageBytes;
  std::size_t tasksExecuted = 0;
  std::size_t transfersIn = 0;
  std::size_t transfersOut = 0;
  std::size_t taskRetries = 0;      ///< Failure-injected re-executions.
  std::size_t tasksEverBlocked = 0; ///< Dispatches deferred for storage space.
  std::size_t tasksFailed = 0;      ///< Retry budget exhausted; never finished.
  std::size_t tasksAbandoned = 0;   ///< Skipped: an ancestor failed.
  std::size_t processorCrashes = 0; ///< Spot-style mid-task losses.
  double wastedCpuSeconds = 0.0;    ///< Billed compute lost to crashes,
                                    ///< failed attempts and preemption.
  bool deadlineExceeded = false;    ///< The run was cut off at the deadline.

  /// True iff every task ran to completion (no permanent failures, no
  /// abandoned descendants, no deadline cut-off).
  bool completed() const {
    return tasksFailed == 0 && tasksAbandoned == 0 && !deadlineExceeded;
  }

  /// The resident-bytes step curve over the whole run — the literal curve
  /// of the paper's §5 storage metric ("a curve that shows the amount of
  /// storage used at the resource with the passage of time").
  UsageCurve storageCurve;

  double storageGBHours() const {
    return storageByteSeconds / kBytesPerGB / kSecondsPerHour;
  }
  /// Fraction of provisioned processor time actually claimed by tasks.
  double utilization() const {
    const double provisioned = processors * makespanSeconds;
    return provisioned > 0.0 ? processorBusySeconds / provisioned : 0.0;
  }
};

/// Price one run.  For Provisioned mode, CPU cost is processors x makespan
/// (Question 1); for Usage, Σ task runtimes (Question 2).  The breakdown's
/// `storage` and `storageCleanup` fields are both set to this run's storage
/// cost; the figure-level drivers overwrite `storageCleanup` from a paired
/// DynamicCleanup run (Fig 4's two storage curves).
cloud::CostBreakdown computeCost(
    const ExecutionResult& result, const cloud::Pricing& pricing,
    cloud::CpuBillingMode cpuMode,
    cloud::BillingGranularity granularity = cloud::BillingGranularity::PerSecond);

}  // namespace mcsim::engine
