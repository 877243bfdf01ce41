// Typed telemetry events — the vocabulary of the observability layer.
//
// Every instrumented component (simulator calendar, link, processor pool,
// storage service, execution engine, logger) describes what happened as one
// of the payload structs below; an `Event` stamps the payload with the
// simulation time.  Payloads are plain structs of ids and numbers — no
// strings are formatted at the emit site, so a disabled observer costs one
// branch and an enabled one costs a variant construction.  Exporters
// (JSONL, metrics, report) attach meaning downstream.
//
// This header sits below every other mcsim module: it may not include
// sim/, cloud/, engine/ or dag/ headers.  Ids are therefore raw integers
// (they mirror sim::EventId, Link::TransferId, dag::TaskId / FileId and
// storage keys without naming those types).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

namespace mcsim::obs {

/// Mirrors dag::kNoTask: a line item or transfer not attributable to a
/// single task (global stage-in/out of the workflow).
inline constexpr std::uint32_t kNoTask = 0xffffffffu;

// -- simulator calendar -------------------------------------------------------
struct SimEventScheduled {
  std::uint64_t event;
  double fireAt;
};
struct SimEventFired {
  std::uint64_t event;
};
struct SimEventCancelled {
  std::uint64_t event;
};

// -- network link -------------------------------------------------------------
struct TransferStarted {
  std::uint64_t transfer;
  double bytes;
  std::size_t active;  ///< Concurrent transfers, including this one.
};
/// High-volume: emitted per active transfer whenever the link re-credits
/// progress.  Sinks opt in via accepts(EventKind::TransferProgress).
struct TransferProgress {
  std::uint64_t transfer;
  double remainingBytes;
};
struct TransferFinished {
  std::uint64_t transfer;
  double bytes;
  double seconds;  ///< Wall-clock (sim) duration of the transfer.
};
struct LinkShareChanged {
  std::size_t active;
  double bytesPerSecondEach;  ///< Per-transfer rate after the change.
};
struct LinkSuspended {};
struct LinkResumed {};

// -- processor pool -----------------------------------------------------------
struct ProcessorClaimed {
  int busy;
  int total;
  std::size_t queued;
};
struct ProcessorReleased {
  int busy;
  int total;
  std::size_t queued;
};
struct ProcessorQueued {
  std::size_t queued;  ///< Queue depth after enqueueing this request.
};

// -- cloud storage ------------------------------------------------------------
struct StorageFilePut {
  std::uint64_t key;
  double bytes;
  double residentBytes;  ///< After the put.
  std::size_t objects;
};
struct StorageFileErased {
  std::uint64_t key;
  double bytes;
  double residentBytes;  ///< After the erase.
  std::size_t objects;
};
/// Periodic resident-bytes sample (obs::PeriodicSampler through the engine).
struct StorageSampled {
  double residentBytes;
  std::size_t objects;
};

// -- execution engine ---------------------------------------------------------
struct RunStarted {
  std::size_t tasks;
  std::size_t files;
  int processors;
};
struct RunFinished {
  double seconds;  ///< End of the last stage-out (excludes VM teardown).
};
struct TaskReady {
  std::uint32_t task;
};
struct TaskStarted {
  std::uint32_t task;  ///< Processor claimed (remote I/O: stage-in begins).
};
struct TaskExecStarted {
  std::uint32_t task;  ///< Computation begins.
};
struct TaskFinished {
  std::uint32_t task;
  double cpuSeconds;  ///< Billed runtime of the successful attempt.
};
struct TaskRetried {
  std::uint32_t task;  ///< A failure-injected attempt is being re-executed.
};
struct TaskBlocked {
  std::uint32_t task;  ///< Dispatch deferred: would overflow storage capacity.
};
struct StageInStarted {
  std::uint32_t file;
  std::uint32_t task;  ///< kNoTask for the global t=0 stage-in.
  double bytes;
};
struct StageInFinished {
  std::uint32_t file;
  std::uint32_t task;
  double bytes;
};
struct StageOutStarted {
  std::uint32_t file;
  std::uint32_t task;  ///< kNoTask for the final workflow stage-out.
  double bytes;
};
struct StageOutFinished {
  std::uint32_t file;
  std::uint32_t task;
  double bytes;
};
struct FileCleanupDeleted {
  std::uint32_t file;
  std::uint32_t task;  ///< The last consumer whose completion freed the file.
  double bytes;
};

// -- fault injection & recovery -----------------------------------------------
/// The processor executing `task` died mid-attempt (spot-style loss);
/// `wastedSeconds` of compute were lost and billed.
struct ProcessorCrashed {
  std::uint32_t task;
  double wastedSeconds;
};
/// A crashed task was granted a retry: its attempt number `attempt` (1-based
/// count of attempts already made) will re-execute after `delaySeconds`.
struct TaskRetryScheduled {
  std::uint32_t task;
  int attempt;
  double delaySeconds;
};
/// The task exhausted its retry budget after `attempts` execution attempts
/// and is permanently failed.
struct TaskFailed {
  std::uint32_t task;
  int attempts;
};
/// A descendant of a failed task can never run; `ancestor` is the failed or
/// abandoned parent that sealed its fate.
struct TaskAbandoned {
  std::uint32_t task;
  std::uint32_t ancestor;
};
struct StorageOutageStarted {};
struct StorageOutageEnded {};
/// The workflow deadline passed with `unfinishedTasks` tasks incomplete;
/// every in-flight attempt was preempted and the run reported incomplete.
struct DeadlineExceeded {
  std::size_t unfinishedTasks;
};

/// What a billing line item's `quantity` is denominated in.
enum class Resource : std::uint8_t {
  Cpu,          ///< quantity = CPU seconds.
  Storage,      ///< quantity = byte-seconds of residency.
  TransferIn,   ///< quantity = bytes user/archive -> cloud.
  TransferOut,  ///< quantity = bytes cloud -> user.
};
const char* resourceName(Resource resource);

/// A unit of billable consumption, attributed to the task that caused it
/// (kNoTask = workflow-level staging).  Dollars are applied downstream by
/// obs::ReportBuilder so the engine never needs a fee schedule.
struct BillingLineItem {
  Resource resource;
  std::uint32_t task;
  double quantity;
};

// -- scenario runner ----------------------------------------------------------
/// Scenario memo-cache statistics for one runner batch: how many scenarios
/// were served without re-simulation (`hits` — prior cache entries plus
/// in-batch duplicates), how many were actually simulated (`misses`), the
/// cache population after the batch, cumulative LRU `evictions` over the
/// cache's lifetime, approximate resident `bytes`, and the batch hit rate
/// hits / (hits + misses).  Emitted once per run, after every scenario's
/// merged event stream.
struct ScenarioCacheStats {
  std::size_t hits;
  std::size_t misses;
  std::size_t entries;
  std::size_t evictions = 0;
  std::size_t bytes = 0;
  double hitRate = 0.0;
};

// -- self-profiling -----------------------------------------------------------
/// Wall-clock spent by the simulator itself in one internal phase of a run
/// (setup / schedule / event loop / extract; `phase` is the integer value of
/// obs::SimPhase).  Emitted after the run, only when EngineConfig::profile is
/// set — wall-clock never enters a captured event stream by default, so
/// replay and memoisation stay deterministic.
struct PhaseProfile {
  std::uint8_t phase;
  double wallSeconds;
};

/// One runner worker's contribution to a batch: scenarios executed, wall-clock
/// spent simulating (`busySeconds`), and the worker's total lifetime
/// (`wallSeconds`); busy/wall is the worker's utilization.  Emitted after
/// ScenarioCacheStats, only when JobOptions::profile is set.
struct WorkerProfile {
  int worker;
  std::size_t scenarios;
  double busySeconds;
  double wallSeconds;
};

/// Whole-batch runner profile: configured parallelism, scenario count, how
/// many were served from the memo cache, and end-to-end batch wall-clock.
/// Emitted last, only when JobOptions::profile is set.
struct RunnerBatchProfile {
  int jobs;
  std::size_t scenarios;
  std::size_t cached;
  double wallSeconds;
};

// -- survey campaigns ---------------------------------------------------------
/// One shard of a sharded survey campaign finished simulating: shard index
/// (0-based) out of `shards`, its task count and simulated makespan.
/// Emitted by runner::runCampaign after the shard's scenario completes.
struct ShardCompleted {
  std::size_t shard;
  std::size_t shards;
  std::size_t tasks;
  double makespanSeconds;
};

/// Whole-campaign roll-up: shard count, total tasks, campaign makespan
/// (shards run concurrently: the max over shards) and total CPU seconds.
/// Emitted once, after every ShardCompleted.
struct CampaignCompleted {
  std::size_t shards;
  std::size_t tasks;
  double makespanSeconds;
  double totalCpuSeconds;
};

// -- job queue ----------------------------------------------------------------
/// A job was admitted to the runner's JobQueue: its id, scenario count and
/// the number of jobs waiting for workers after admission (including this
/// one).  Job lifecycle events are control-plane telemetry: they carry
/// time < 0 (no simulation clock is in scope) and are emitted to the queue's
/// own observer, never into per-request scenario streams.
struct JobSubmitted {
  std::uint64_t job;
  std::size_t scenarios;
  std::size_t queued;
};

/// A worker began executing the job's first fresh scenario.
struct JobStarted {
  std::uint64_t job;
};

/// The job reached a terminal state.  `outcome` is the integer value of
/// runner::JobState (completed / failed / cancelled); `cached` counts the
/// scenarios served from the memo cache instead of simulating.
struct JobFinished {
  std::uint64_t job;
  std::uint8_t outcome;
  std::size_t scenarios;
  std::size_t cached;
};

// -- logging ------------------------------------------------------------------
/// A util/log message routed through the event bus (satellite of the single
/// logging path).  `level` is the integer value of mcsim::LogLevel.
struct LogEmitted {
  int level;
  std::string message;
};

/// All payloads.  Order defines EventKind and is part of the taxonomy —
/// append, don't reorder.
using Payload = std::variant<
    SimEventScheduled, SimEventFired, SimEventCancelled, TransferStarted,
    TransferProgress, TransferFinished, LinkShareChanged, LinkSuspended,
    LinkResumed, ProcessorClaimed, ProcessorReleased, ProcessorQueued,
    StorageFilePut, StorageFileErased, StorageSampled, RunStarted, RunFinished,
    TaskReady, TaskStarted, TaskExecStarted, TaskFinished, TaskRetried,
    TaskBlocked, StageInStarted, StageInFinished, StageOutStarted,
    StageOutFinished, FileCleanupDeleted, BillingLineItem, LogEmitted,
    ProcessorCrashed, TaskRetryScheduled, TaskFailed, TaskAbandoned,
    StorageOutageStarted, StorageOutageEnded, DeadlineExceeded,
    ScenarioCacheStats, PhaseProfile, WorkerProfile, RunnerBatchProfile,
    ShardCompleted, CampaignCompleted, JobSubmitted, JobStarted, JobFinished>;

enum class EventKind : std::uint8_t {
  SimEventScheduled,
  SimEventFired,
  SimEventCancelled,
  TransferStarted,
  TransferProgress,
  TransferFinished,
  LinkShareChanged,
  LinkSuspended,
  LinkResumed,
  ProcessorClaimed,
  ProcessorReleased,
  ProcessorQueued,
  StorageFilePut,
  StorageFileErased,
  StorageSampled,
  RunStarted,
  RunFinished,
  TaskReady,
  TaskStarted,
  TaskExecStarted,
  TaskFinished,
  TaskRetried,
  TaskBlocked,
  StageInStarted,
  StageInFinished,
  StageOutStarted,
  StageOutFinished,
  FileCleanupDeleted,
  BillingLineItem,
  LogEmitted,
  ProcessorCrashed,
  TaskRetryScheduled,
  TaskFailed,
  TaskAbandoned,
  StorageOutageStarted,
  StorageOutageEnded,
  DeadlineExceeded,
  ScenarioCacheStats,
  PhaseProfile,
  WorkerProfile,
  RunnerBatchProfile,
  ShardCompleted,
  CampaignCompleted,
  JobSubmitted,
  JobStarted,
  JobFinished,
};

inline constexpr std::size_t kEventKindCount = 46;
static_assert(std::variant_size_v<Payload> == kEventKindCount,
              "EventKind and Payload must list the same alternatives");

/// A set of event kinds, one bit per kind: what a sink accepts, and what
/// the runner captures and memoizes for a job's observer.
class EventKindSet {
 public:
  constexpr EventKindSet() = default;

  constexpr EventKindSet with(EventKind kind) const {
    return EventKindSet(bits_ | bit(kind));
  }
  constexpr bool contains(EventKind kind) const {
    return (bits_ & bit(kind)) != 0;
  }
  constexpr bool empty() const { return bits_ == 0; }
  /// The raw mask, bit i = EventKind i (stable: the taxonomy only appends).
  constexpr std::uint64_t bits() const { return bits_; }

  friend constexpr EventKindSet operator&(EventKindSet a, EventKindSet b) {
    return EventKindSet(a.bits_ & b.bits_);
  }

 private:
  static_assert(kEventKindCount <= 64, "EventKindSet holds 64 kinds");
  constexpr explicit EventKindSet(std::uint64_t bits) : bits_(bits) {}
  static constexpr std::uint64_t bit(EventKind kind) {
    return std::uint64_t{1} << static_cast<unsigned>(kind);
  }

  std::uint64_t bits_ = 0;
};

/// The kinds a simulation run emits into EngineConfig::observer — every
/// kind from sim_event_scheduled to deadline_exceeded except `log`, which
/// util/log routes to its own sink.  The runner, campaign, job and
/// self-profiling kinds are emitted around runs, never inside one (the
/// runner forces EngineConfig::profile off), so these are all a captured
/// scenario stream can hold.
inline constexpr EventKindSet kScenarioKinds = [] {
  EventKindSet kinds;
  for (std::size_t k = 0;
       k <= static_cast<std::size_t>(EventKind::DeadlineExceeded); ++k)
    if (static_cast<EventKind>(k) != EventKind::LogEmitted)
      kinds = kinds.with(static_cast<EventKind>(k));
  return kinds;
}();

/// One thing that happened, at a simulation time.  Log events carry
/// time < 0 when no simulation clock is in scope.
struct Event {
  double time = 0.0;
  Payload payload;
};

inline EventKind kind(const Event& event) {
  return static_cast<EventKind>(event.payload.index());
}

namespace detail {
template <class T, class Variant>
struct PayloadIndex;
template <class T, class... Ts>
struct PayloadIndex<T, std::variant<Ts...>> {
  static constexpr std::size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Ts>...};
    for (std::size_t i = 0; i < sizeof...(Ts); ++i)
      if (matches[i]) return i;
    return sizeof...(Ts);
  }();
  static_assert(value < sizeof...(Ts), "T is not a Payload alternative");
};
}  // namespace detail

/// Compile-time EventKind of a payload type — lets emitters ask
/// `sink->accepts(kEventKindOf<T>)` *before* constructing the Event variant,
/// so rejected kinds cost one predicted branch and no payload work.
template <class T>
inline constexpr EventKind kEventKindOf =
    static_cast<EventKind>(detail::PayloadIndex<T, Payload>::value);

/// Stable snake_case name of an event kind (the JSONL "type" field).
const char* eventName(EventKind kind);

}  // namespace mcsim::obs
