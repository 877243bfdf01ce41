#include "mcsim/runner/jobs.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::runner {
namespace {

/// Reject malformed specs before anything is admitted.
void validateSpecs(const std::vector<ScenarioSpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].workflow == nullptr)
      throw std::invalid_argument("JobQueue: scenario " + std::to_string(i) +
                                  " has no workflow");
    if (specs[i].config.observer != nullptr)
      throw std::invalid_argument(
          "JobQueue: scenario " + std::to_string(i) +
          " sets config.observer; per-scenario observation is managed by "
          "the queue (use JobOptions::observer)");
  }
}

/// Execute scenario `i` into `out`, capturing the events of `capture`.  An
/// empty set runs the engine with no observer at all.
void runOne(const ScenarioSpec& spec, std::size_t i, std::uint64_t baseSeed,
            obs::EventKindSet capture, ScenarioResult& out) {
  out.index = i;
  out.label = spec.label;
  engine::EngineConfig cfg = spec.config;
  if (baseSeed != 0) cfg.faults.seed = deriveSeed(baseSeed, i);
  // Self-profiling would put host wall-clock into the captured stream,
  // breaking merge determinism and memo-cache replay.
  cfg.profile = false;
  obs::CollectingSink collector;
  obs::FilterSink filter(collector, capture);
  cfg.observer = capture.empty() ? nullptr : &filter;
  out.result = engine::simulateWorkflow(*spec.workflow, cfg);
  out.events = collector.take();
}

/// Replay the kinds the job's observer accepts (`replay`) from one
/// scenario's stream, then drop the buffer unless the caller asked to keep
/// it.  Only keepEvents records kinds the observer turns away.
void mergeOne(ScenarioResult& r, obs::Sink* observer,
              obs::EventKindSet replay, bool keepEvents) {
  if (observer != nullptr)
    for (const obs::Event& e : r.events)
      if (replay.contains(obs::kind(e))) observer->onEvent(e);
  if (!keepEvents) {
    r.events.clear();
    r.events.shrink_to_fit();
  }
}

constexpr std::size_t kRunFresh = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/// Serve scenario `i` from a cache entry (a prior-run hit or an in-batch
/// duplicate's representative), preserving the scenario's own identity.
void fillFromEntry(ScenarioMemoCache::Entry entry, const ScenarioSpec& spec,
                   std::size_t i, ScenarioResult& out) {
  out.index = i;
  out.label = spec.label;
  out.result = std::move(entry.result);
  out.events = std::move(entry.events);
  out.fromCache = true;
}

/// Classification of a job against the memo cache, computed serially at
/// activation so hit/miss accounting and results never depend on worker
/// scheduling.  Cache-hit scenarios are filled into `results` directly;
/// duplicates point at an earlier representative; everything else lands in
/// `toRun`.
struct CachePlan {
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> dupOf;  ///< Representative index, or kRunFresh.
  std::vector<std::size_t> toRun;
};

CachePlan planAgainstCache(const std::vector<ScenarioSpec>& specs,
                           std::uint64_t baseSeed, obs::EventKindSet capture,
                           ScenarioMemoCache& cache,
                           std::vector<ScenarioResult>& results) {
  const std::size_t n = specs.size();
  CachePlan plan;
  plan.keys.resize(n);
  plan.dupOf.assign(n, kRunFresh);
  std::unordered_map<std::uint64_t, std::size_t> repByKey;
  for (std::size_t i = 0; i < n; ++i) {
    engine::EngineConfig cfg = specs[i].config;
    if (baseSeed != 0) cfg.faults.seed = deriveSeed(baseSeed, i);
    // A workflow hashes itself once and keeps the value, so the hundreds of
    // scenarios a sweep runs against one workflow, and every later job that
    // names it, pay for one pass over its content.
    plan.keys[i] = combineFingerprints(specs[i].workflow->fingerprint(),
                                       fingerprintConfig(cfg, capture));
    if (auto rep = repByKey.find(plan.keys[i]); rep != repByKey.end()) {
      // Identical to a scenario already scheduled this job: it will be
      // served from the representative's result once that exists.
      plan.dupOf[i] = rep->second;
      cache.recordBatchHits(1);
      continue;
    }
    if (auto entry = cache.lookup(plan.keys[i])) {  // counts hit or miss
      fillFromEntry(std::move(*entry), specs[i], i, results[i]);
      continue;
    }
    repByKey.emplace(plan.keys[i], i);
    plan.toRun.push_back(i);
  }
  return plan;
}

/// A representative's cache entry: its result and captured events.  The
/// captured kind set is part of the key, so an entry only ever serves a
/// caller that wants exactly its kinds.
ScenarioMemoCache::Entry entryOf(const ScenarioResult& r) {
  return {r.result, r.events};
}

/// Per-job cache statistics, appended after the merged streams.  Hits and
/// misses come from the job's own serial classification — deterministic even
/// while other jobs share the cache — while entries / evictions / bytes are
/// the cache's state at emission.
void emitJobCacheStats(const ScenarioMemoCache& cache, std::size_t hits,
                       std::size_t misses, obs::Sink* observer) {
  if (observer == nullptr) return;
  const MemoStats now = cache.stats();
  obs::ScenarioCacheStats p{};
  p.hits = hits;
  p.misses = misses;
  p.entries = now.entries;
  p.evictions = now.evictions;
  p.bytes = now.bytes;
  p.hitRate = hits + misses == 0
                  ? 0.0
                  : static_cast<double>(hits) /
                        static_cast<double>(hits + misses);
  observer->onEvent(obs::Event{0.0, p});
}

bool terminal(JobState state) {
  return state == JobState::Completed || state == JobState::Failed ||
         state == JobState::Cancelled;
}

}  // namespace

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

/// All per-job state.  Guarded by the queue mutex except where noted: a
/// worker may touch `results[i]` for a claimed index, and the activating
/// worker owns the whole job until `planned` flips true.
struct JobQueue::Job {
  JobId id = 0;
  JobState state = JobState::Queued;
  JobRequest request;
  /// Scenario kinds to record: all of them under keepEvents, else those the
  /// observer accepts (none without one).  Part of every memo key.
  obs::EventKindSet capture;
  obs::EventKindSet replay;  ///< Kinds the observer accepts.

  bool planned = false;
  bool finalized = false;  ///< A worker owns finalization (or it is done).
  CachePlan plan;
  std::size_t dupCount = 0;
  std::vector<ScenarioResult> results;
  std::size_t nextItem = 0;  ///< Next unclaimed index into plan.toRun.
  std::size_t inFlight = 0;
  std::size_t completedScenarios = 0;
  /// Lock-free cancel flag so execution loops can poll without the queue
  /// mutex; authoritative state transitions still happen under the mutex.
  std::atomic<bool> cancelRequested{false};
  std::size_t errorIndex = kNoError;
  std::exception_ptr error;

  /// Nothing left to claim: every scenario to run is claimed, or the job
  /// was cancelled or failed.
  bool exhausted() const {
    return cancelRequested.load(std::memory_order_relaxed) ||
           nextItem >= plan.toRun.size();
  }
};

JobQueue::JobQueue(JobQueueOptions options) : options_(std::move(options)) {
  if (options_.workers < 0)
    throw std::invalid_argument("JobQueue: workers must be >= 0");
  if (options_.maxQueuedJobs == 0)
    throw std::invalid_argument("JobQueue: maxQueuedJobs must be >= 1");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

JobQueue::~JobQueue() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    // Queued jobs resolve Cancelled without ever activating.
    for (JobId id : pending_) {
      Job& job = *jobs_.at(id);
      job.finalized = true;
      resolve(job, JobState::Cancelled);
    }
    pending_.clear();
    for (auto& [id, job] : jobs_)
      if (job->state == JobState::Running)
        job->cancelRequested.store(true, std::memory_order_relaxed);
    workCv_.notify_all();
    stateCv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

JobId JobQueue::submit(JobRequest request) {
  validateSpecs(request.scenarios);
  std::unique_lock<std::mutex> lock(mutex_);
  stateCv_.wait(lock, [&] {
    return stopping_ || options_.workers == 0 ||
           pending_.size() < options_.maxQueuedJobs;
  });
  if (stopping_)
    throw std::runtime_error("JobQueue: queue is shutting down");
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  return submitLocked(std::move(job), lock);
}

std::optional<JobId> JobQueue::trySubmit(JobRequest request) {
  validateSpecs(request.scenarios);
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_)
    throw std::runtime_error("JobQueue: queue is shutting down");
  if (options_.workers > 0 && pending_.size() >= options_.maxQueuedJobs)
    return std::nullopt;
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  return submitLocked(std::move(job), lock);
}

JobId JobQueue::submitLocked(std::unique_ptr<Job> job,
                             std::unique_lock<std::mutex>& lock) {
  const JobId id = nextId_++;
  ++stats_.submitted;
  Job& ref = *job;
  ref.id = id;
  const JobOptions& jo = ref.request.options;
  if (jo.observer != nullptr) ref.replay = obs::acceptedKinds(*jo.observer);
  ref.capture =
      jo.keepEvents ? obs::kScenarioKinds : ref.replay & obs::kScenarioKinds;
  jobs_.emplace(id, std::move(job));
  if (options_.workers == 0) {
    // Inline mode: the caller's thread is the pool.  It claims the scenarios
    // to run in spec order, so a failure stops the job at the scenario that
    // raised it, and then finalizes as a pool's last worker does.
    activate(ref, lock);
    while (!ref.exhausted()) executeItem(ref, lock);
    finalize(ref, lock);
    return id;
  }
  pending_.push_back(id);
  workCv_.notify_one();
  return id;
}

JobStatus JobQueue::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("JobQueue: unknown or retired job id " +
                                std::to_string(id));
  const Job& job = *it->second;
  JobStatus status;
  status.id = id;
  status.state = job.state;
  status.completedScenarios = job.completedScenarios;
  status.totalScenarios = job.request.scenarios.size();
  status.label = job.request.label;
  return status;
}

JobOutcome JobQueue::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Re-find on every wakeup: a concurrent wait() on the same id may have
  // consumed the outcome and erased the job while we slept.
  stateCv_.wait(lock, [&] {
    const auto it = jobs_.find(id);
    return it == jobs_.end() || terminal(it->second->state);
  });
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("JobQueue: unknown or retired job id " +
                                std::to_string(id));
  Job& job = *it->second;

  JobOutcome outcome;
  outcome.id = id;
  outcome.state = job.state;
  outcome.label = job.request.label;
  outcome.results = std::move(job.results);
  outcome.error = [&] {
    if (job.error == nullptr) return std::string();
    try {
      std::rethrow_exception(job.error);
    } catch (const std::exception& e) {
      return std::string(e.what());
    } catch (...) {
      return std::string("unknown error");
    }
  }();
  outcome.exception = job.error;
  if (job.planned)
    outcome.cachedScenarios =
        job.request.scenarios.size() - job.plan.toRun.size();
  jobs_.erase(it);  // retire the id; keepAlive workflows release here
  return outcome;
}

bool JobQueue::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (terminal(job.state)) return false;
  if (job.state == JobState::Queued) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    job.finalized = true;
    resolve(job, JobState::Cancelled);
    stateCv_.notify_all();
    return true;
  }
  if (job.cancelRequested.load(std::memory_order_relaxed)) return false;
  job.cancelRequested.store(true, std::memory_order_relaxed);
  workCv_.notify_all();  // idle workers must notice and finalize
  return true;
}

std::vector<ScenarioResult> JobQueue::run(
    const std::vector<ScenarioSpec>& specs, const JobOptions& options) {
  JobRequest request;
  request.scenarios = specs;
  request.options = options;
  const JobId id = submit(std::move(request));
  JobOutcome outcome = wait(id);
  if (outcome.state == JobState::Failed)
    std::rethrow_exception(outcome.exception);
  if (outcome.state == JobState::Cancelled)
    throw std::runtime_error("JobQueue: job " + std::to_string(id) +
                             " was cancelled");
  return std::move(outcome.results);
}

std::size_t JobQueue::queuedJobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::size_t JobQueue::liveJobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

JobQueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void JobQueue::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    bool worked = false;
    // Jobs in id (admission) order: finish and finalize earlier jobs first.
    for (auto& [id, jobPtr] : jobs_) {
      Job& job = *jobPtr;
      if (job.state != JobState::Running || !job.planned || job.finalized)
        continue;
      if (!job.exhausted()) {
        executeItem(job, lock);
        worked = true;
        break;  // the jobs_ map may have changed while unlocked
      }
      if (job.inFlight == 0) {
        finalize(job, lock);
        worked = true;
        break;
      }
    }
    if (worked) continue;
    if (!pending_.empty()) {
      const JobId id = pending_.front();
      pending_.pop_front();
      stateCv_.notify_all();  // an admission slot freed up
      activate(*jobs_.at(id), lock);
      continue;
    }
    if (stopping_) break;
    // The wait predicate is the whole scan above (runnable item, pending
    // admission, finalizable job) — re-checked by looping; a spurious wakeup
    // costs one extra scan.  mcsim-lint: allow(cv-wait-predicate)
    workCv_.wait(lock);
  }
}

void JobQueue::activate(Job& job, std::unique_lock<std::mutex>& lock) {
  job.state = JobState::Running;
  const std::size_t n = job.request.scenarios.size();
  job.results.resize(n);
  if (options_.cache != nullptr) {
    // A workflow's first fingerprint is O(workflow bytes): classify outside
    // the lock.  The activating worker owns the job until `planned` flips,
    // so results[] and plan are safe to fill unlocked.
    lock.unlock();
    job.plan = planAgainstCache(job.request.scenarios,
                                job.request.options.baseSeed, job.capture,
                                *options_.cache, job.results);
    lock.lock();
  } else {
    job.plan.toRun.resize(n);
    std::iota(job.plan.toRun.begin(), job.plan.toRun.end(), std::size_t{0});
  }
  for (std::size_t d : job.plan.dupOf)
    if (d != kRunFresh) ++job.dupCount;
  // Prior-run cache hits are already resolved; in-batch duplicates resolve
  // at finalization.
  job.completedScenarios = n - job.plan.toRun.size() - job.dupCount;
  job.planned = true;
  workCv_.notify_all();
}

void JobQueue::executeItem(Job& job, std::unique_lock<std::mutex>& lock) {
  const std::size_t i = job.plan.toRun[job.nextItem++];
  ++job.inFlight;
  lock.unlock();

  std::exception_ptr failure;
  try {
    runOne(job.request.scenarios[i], i, job.request.options.baseSeed,
           job.capture, job.results[i]);
  } catch (...) {
    failure = std::current_exception();
  }

  lock.lock();
  --job.inFlight;
  if (failure != nullptr) {
    // Keep the lowest-index failure so the error a caller sees does not
    // depend on worker scheduling when several scenarios are doomed.
    if (i < job.errorIndex) {
      job.errorIndex = i;
      job.error = failure;
    }
    job.cancelRequested.store(true, std::memory_order_relaxed);
    workCv_.notify_all();
  } else {
    ++job.completedScenarios;
  }
}

void JobQueue::finalize(Job& job, std::unique_lock<std::mutex>& lock) {
  job.finalized = true;  // claim finalization before dropping the lock
  const bool failed = job.error != nullptr;
  const bool cancelled =
      !failed && job.cancelRequested.load(std::memory_order_relaxed);
  const std::size_t n = job.request.scenarios.size();
  const JobOptions& jo = job.request.options;
  lock.unlock();

  if (!failed && !cancelled) {
    if (options_.cache != nullptr) {
      for (std::size_t i : job.plan.toRun)
        options_.cache->insert(job.plan.keys[i], entryOf(job.results[i]));
      // Duplicates are served from their representative's in-job result,
      // so they never depend on the entry staying resident in a bounded
      // cache that other jobs share.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rep = job.plan.dupOf[i];
        if (rep == kRunFresh) continue;
        fillFromEntry(entryOf(job.results[rep]), job.request.scenarios[i], i,
                      job.results[i]);
      }
    }
    for (ScenarioResult& r : job.results)
      mergeOne(r, jo.observer, job.replay, jo.keepEvents);
    if (options_.cache != nullptr)
      emitJobCacheStats(*options_.cache, n - job.plan.toRun.size(),
                        job.plan.toRun.size(), jo.observer);
  }

  lock.lock();
  if (failed || cancelled)
    job.results.clear();
  else
    job.completedScenarios = n;
  resolve(job, failed      ? JobState::Failed
               : cancelled ? JobState::Cancelled
                           : JobState::Completed);
  stateCv_.notify_all();
}

void JobQueue::resolve(Job& job, JobState state) {
  job.state = state;
  ++(state == JobState::Completed ? stats_.completed
     : state == JobState::Failed  ? stats_.failed
                                  : stats_.cancelled);
  stats_.resolvedScenarios += job.request.scenarios.size();
}

std::vector<ScenarioResult> runOnQueue(JobQueue* queue,
                                       const std::vector<ScenarioSpec>& specs,
                                       const JobOptions& options) {
  if (queue != nullptr) return queue->run(specs, options);
  JobQueue inlineQueue({.workers = 0});
  return inlineQueue.run(specs, options);
}

}  // namespace mcsim::runner
