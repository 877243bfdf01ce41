// Job-oriented runner API: a persistent worker pool with submit / status /
// wait / cancel semantics and a backpressured bounded admission queue.  It
// is the one way to run a scenario batch: sweeps, campaigns, benches and the
// serve daemon all submit to a JobQueue, and runOnQueue(nullptr, ...) runs a
// batch on a transient inline queue (in the caller's thread, uncached).
//
// Every job executes one way.  Workers claim its scenarios to run one at a
// time; an inline queue (`workers = 0`) claims them in the caller's thread,
// in spec order.  Whoever finishes last finalizes the job: merges the
// captured streams, inserts into the cache, completes the progress count
// and decides the outcome.
//
// Determinism contract (see DESIGN.md "Concurrency model"):
//  * A job's results and its observer's merged event stream are the same
//    bytes at any worker count, inline included, and while other jobs run
//    concurrently — each job gets private per-scenario capture sinks and a
//    private merge, and per-job cache accounting is computed from the
//    serial admission-time classification, never from racy global counters.
//  * Seeds: with JobOptions::baseSeed != 0 each scenario's fault seed is
//    deriveSeed(baseSeed, index) — a pure hash, so adding, removing or
//    reordering workers never changes any scenario's randomness.
//  * Errors: the lowest-index scenario failure wins, the job's remaining
//    scenarios are cancelled, and wait() surfaces the stored exception.
//  * Cancel: a queued job cancels immediately; a running job stops claiming
//    new scenarios, drains its in-flight ones, and resolves Cancelled with
//    no results.  Other jobs are unaffected — their bytes do not change.
//  * A failed or cancelled job feeds neither its observer nor the cache.
//
// The queue counts the jobs it admits and resolves under its own mutex;
// stats() reads them (the serve daemon's /metrics).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mcsim/runner/runner.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::obs {
class Sink;
}

namespace mcsim::runner {

class ScenarioMemoCache;

/// Monotonic per-queue job handle; 0 is never issued.
using JobId = std::uint64_t;

/// Job lifecycle: Queued -> Running -> {Completed, Failed, Cancelled};
/// Queued -> Cancelled directly when cancelled before activation.
enum class JobState : std::uint8_t {
  Queued = 0,
  Running = 1,
  Completed = 2,
  Failed = 3,
  Cancelled = 4,
};

/// Stable snake_case name (serve protocol + logs).
const char* jobStateName(JobState state);

/// Per-job execution options.  Worker count and cache are queue-scoped
/// (JobQueueOptions).
struct JobOptions {
  /// != 0: overwrite each scenario's fault seed with deriveSeed(baseSeed, i).
  /// 0 (default) leaves spec seeds untouched.
  std::uint64_t baseSeed = 0;
  /// Receives this job's events, merged deterministically in ascending
  /// scenario index at completion — per-request telemetry isolation.  Only
  /// the kinds it accepts() are captured, memoized and replayed (asked once,
  /// at submit); when it accepts no scenario kind the engine runs with no
  /// observer and the job still gets its scenario_cache_stats event.
  /// Borrowed; must outlive the job; never shared with a concurrent job
  /// unless externally synchronized.
  obs::Sink* observer = nullptr;
  /// Retain each scenario's full event stream (every obs::kScenarioKinds
  /// kind, whatever the observer accepts) in ScenarioResult::events.
  bool keepEvents = false;
};

/// One unit of admission: a batch of scenarios plus its options.
struct JobRequest {
  std::vector<ScenarioSpec> scenarios;
  JobOptions options;
  std::string label;  ///< Optional; echoed through status and outcome.
  /// Optional ownership anchor: workflows referenced by `scenarios` that
  /// must outlive the job (the serve daemon walks away after submit, and
  /// its spec memo may drop a shared workflow while the job runs).
  /// Released when the job is retired.
  std::vector<std::shared_ptr<const dag::Workflow>> keepAlive;
};

/// Snapshot of a job's progress.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::Queued;
  std::size_t completedScenarios = 0;  ///< Resolved (simulated or cached).
  std::size_t totalScenarios = 0;
  std::string label;
};

/// Terminal result of a job, surrendered exactly once by wait().
struct JobOutcome {
  JobId id = 0;
  JobState state = JobState::Completed;
  std::string label;
  /// Scenario results in spec order; empty unless state == Completed.
  std::vector<ScenarioResult> results;
  /// Scenarios served from the memo cache (Completed jobs).
  std::size_t cachedScenarios = 0;
  /// what() of the failure; empty unless state == Failed.
  std::string error;
  /// The stored failure, rethrowable; null unless state == Failed.
  std::exception_ptr exception;
};

struct JobQueueOptions {
  /// Persistent worker threads.  0 = inline mode: submit() executes the job
  /// synchronously in the caller's thread, in spec order.  A job uses at
  /// most as many workers as it has scenarios to run.
  int workers = defaultJobs();
  /// Backpressure bound on jobs admitted but not yet activated; submit()
  /// blocks (trySubmit() refuses) while the admission queue is full.
  std::size_t maxQueuedJobs = 64;
  /// Optional cross-job scenario memo cache (bound it with MemoCacheOptions
  /// for server use).  Borrowed; shared by every job on this queue.  Each
  /// scenario is fingerprinted over its workflow content, effective engine
  /// config and captured kind set; cached or in-job repeated scenarios are
  /// served by replaying the stored result and captured events,
  /// byte-identical to a fresh run.  With a job observer, one
  /// obs::ScenarioCacheStats event is appended after the merged streams.
  ScenarioMemoCache* cache = nullptr;
};

/// Cumulative job counts since the queue was constructed.
struct JobQueueStats {
  std::uint64_t submitted = 0;  ///< Jobs admitted.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  /// Scenarios across jobs that reached a terminal state.
  std::uint64_t resolvedScenarios = 0;
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  /// Cancels queued jobs, drains in-flight scenarios, joins the pool.
  /// Unclaimed outcomes are discarded.
  ~JobQueue();

  const JobQueueOptions& options() const { return options_; }

  /// Admit a job; blocks while the admission queue is full.  Throws
  /// std::invalid_argument on malformed specs (no workflow, or a non-null
  /// config.observer).  In inline mode the job executes before returning.
  JobId submit(JobRequest request);
  /// Like submit but never blocks: nullopt when the queue is full.
  std::optional<JobId> trySubmit(JobRequest request);

  /// Progress snapshot.  Throws std::invalid_argument for ids never issued
  /// or already retired by wait().
  JobStatus status(JobId id) const;
  /// Block until the job is terminal, then surrender its outcome and retire
  /// the id.  Does not throw on job failure — inspect JobOutcome::state.
  JobOutcome wait(JobId id);
  /// Request cancellation.  True if the job was still cancellable (queued
  /// or running); false for terminal, retired or unknown ids.
  bool cancel(JobId id);

  /// submit + wait + rethrow-on-failure: results in spec order, or the
  /// lowest-index scenario failure rethrown.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs,
                                  const JobOptions& options = {});

  /// Jobs admitted but not yet activated (the backpressure quantity).
  std::size_t queuedJobs() const;
  /// Jobs issued and not yet retired by wait(), any state.
  std::size_t liveJobs() const;
  /// Snapshot of the cumulative job counts.
  JobQueueStats stats() const;

 private:
  struct Job;

  JobId submitLocked(std::unique_ptr<Job> job, std::unique_lock<std::mutex>& lock);
  void workerLoop();
  void activate(Job& job, std::unique_lock<std::mutex>& lock);
  void executeItem(Job& job, std::unique_lock<std::mutex>& lock);
  void finalize(Job& job, std::unique_lock<std::mutex>& lock);
  /// Move `job` to terminal `state` and count it in stats_ (mutex held).
  void resolve(Job& job, JobState state);

  JobQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable workCv_;   ///< Workers: new items / activations.
  std::condition_variable stateCv_;  ///< Submitters and waiters.
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  std::deque<JobId> pending_;
  JobId nextId_ = 1;
  JobQueueStats stats_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The batch call behind every sweep config's `queue` field: `queue->run`,
/// or — when `queue` is nullptr — the same job on a transient inline queue
/// (`workers = 0`, no cache): in the caller's thread, in spec order,
/// uncached.
std::vector<ScenarioResult> runOnQueue(JobQueue* queue,
                                       const std::vector<ScenarioSpec>& specs,
                                       const JobOptions& options = {});

}  // namespace mcsim::runner
