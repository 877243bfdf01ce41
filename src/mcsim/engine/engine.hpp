// The workflow execution engine: simulates one workflow run on the cloud
// under a data-management mode and a provisioning plan, producing the
// metrics the paper reports.
//
// Semantics (matching §3/§5; see DESIGN.md "Key semantic decisions"):
//  * Regular / DynamicCleanup: every external input starts staging in at
//    t=0 over the shared user<->storage link; a task is ready once its
//    parent tasks have finished and its external inputs have landed; ready
//    tasks are dispatched to free processors (FIFO by default); task outputs
//    appear on storage the instant the task completes (in-cloud access is
//    free and fast, as with EC2/S3); when all tasks are done the workflow
//    outputs are staged out, then everything resident is deleted.
//    DynamicCleanup additionally deletes each file the moment its last
//    consumer finishes (Pegasus data-use analysis).
//  * RemoteIO: a task claims a processor, stages in every one of its inputs
//    from the user site, executes, stages out every output to the user site,
//    deletes its files from storage and only then releases the processor and
//    unblocks its children.  Files used by several tasks transfer once per
//    use (paper: "the file may be transferred in multiple times").
#pragma once

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/faults/faults.hpp"
#include "mcsim/sim/link.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::engine {

/// Dispatch order for ready tasks competing for processors.
enum class SchedulerPolicy {
  Fifo,               ///< By readiness time (paper's behaviour).
  CriticalPathFirst,  ///< Highest upward rank first (HEFT-style ablation).
};

struct EngineConfig {
  DataMode mode = DataMode::Regular;
  int processors = 1;
  /// User <-> cloud-storage bandwidth; the paper fixes 10 Mbps.
  double linkBandwidthBytesPerSec = 10e6 / 8.0;
  /// Default Dedicated: every transfer sees the nominal bandwidth, which is
  /// GridSim's network model and what the paper's stage-in/out times imply.
  /// FairShare divides the pipe among concurrent transfers (the
  /// link-sharing ablation).
  sim::LinkSharing linkSharing = sim::LinkSharing::Dedicated;
  SchedulerPolicy scheduler = SchedulerPolicy::Fifo;
  /// VM provisioning overhead (paper §8 future work): startup delays all
  /// work; teardown extends the billed makespan after the last stage-out.
  double vmStartupSeconds = 0.0;
  double vmTeardownSeconds = 0.0;
  /// Finite cloud-storage capacity in bytes; 0 = unlimited (the paper's
  /// default, §5).  With a cap, a task is dispatched only when its outputs
  /// (remote I/O: inputs + outputs) fit in the remaining space; blocked
  /// tasks resume as cleanup frees space.  Regular mode frees nothing
  /// mid-run, so a cap below its peak footprint aborts with
  /// std::runtime_error — which is precisely why dynamic cleanup exists
  /// (§3's storage-constrained-scheduling citation).
  double storageCapacityBytes = 0.0;
  /// Fault-injection and recovery models (processor crashes, the per-task
  /// coin flip, link/storage outages, retry policies, deadlines).
  /// Default-constructed = disabled: runs are bit-identical to a fault-free
  /// engine.
  faults::FaultConfig faults;
  /// Telemetry sink observing the run: the engine emits task lifecycle,
  /// staging, cleanup and billing-line-item events and installs the sink on
  /// its simulator, link and storage.  nullptr (default) disables all
  /// instrumentation at the cost of one pointer test per site.  The sink is
  /// borrowed; it must outlive simulateWorkflow.  To record the run's
  /// timeline, observe it with an obs::SpanSink (obs/trace.hpp).
  obs::Sink* observer = nullptr;
  /// > 0: emit obs::StorageSampled every this many simulated seconds while
  /// the run is active (requires `observer`).  0 disables sampling.
  double samplePeriodSeconds = 0.0;
  /// Emit obs::PhaseProfile events (simulator self wall-clock per internal
  /// phase: setup / schedule / event loop / extract) to `observer` after the
  /// run.  Off by default so wall-clock never enters captured event streams
  /// — replay and the scenario memo cache stay deterministic; the runner
  /// force-disables it on worker threads for the same reason.
  bool profile = false;
};

/// Simulate one execution of `workflow` (must be finalized) and return its
/// metrics.  Deterministic: identical inputs give identical results.
///
/// Re-entrant: the engine touches no global state, so concurrent calls are
/// safe as long as each call has its own `config.observer` (or none) — the
/// contract mcsim::runner relies on to parallelize whole scenarios while
/// each event loop stays single-threaded.
ExecutionResult simulateWorkflow(const dag::Workflow& workflow,
                                 const EngineConfig& config);

}  // namespace mcsim::engine
