#include "mcsim/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace mcsim::obs {
namespace {

/// Prometheus renders values as Go's %g; shortest-ish round-trip is fine.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<double> powersOfTen(double lo, double hi) {
  std::vector<double> out;
  for (double b = lo; b <= hi * 1.0000001; b *= 10.0) out.push_back(b);
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)), counts_(bounds_.size() + 1, 0) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) !=
      bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

MetricsRegistry::Entry& MetricsRegistry::findOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      Type type) {
  if (const auto it = byName_.find(name); it != byName_.end()) {
    Entry& entry = entries_[it->second];
    if (entry.type != type)
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another type");
    return entry;
  }
  byName_.emplace(name, entries_.size());
  entries_.push_back(Entry{name, help, type, nullptr, nullptr, nullptr});
  return entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  Entry& e = findOrCreate(name, help, Type::Counter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  Entry& e = findOrCreate(name, help, Type::Gauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upperBounds) {
  Entry& e = findOrCreate(name, help, Type::Histogram);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(std::move(upperBounds));
  return *e.histogram;
}

void MetricsRegistry::writePrometheus(std::ostream& os) const {
  for (const Entry& e : entries_) {
    os << "# HELP " << e.name << ' ' << e.help << '\n';
    switch (e.type) {
      case Type::Counter:
        os << "# TYPE " << e.name << " counter\n";
        os << e.name << ' ' << num(e.counter->value()) << '\n';
        break;
      case Type::Gauge:
        os << "# TYPE " << e.name << " gauge\n";
        os << e.name << ' ' << num(e.gauge->value()) << '\n';
        break;
      case Type::Histogram: {
        os << "# TYPE " << e.name << " histogram\n";
        const Histogram& h = *e.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upperBounds().size(); ++i) {
          cumulative += h.bucketCounts()[i];
          os << e.name << "_bucket{le=\"" << num(h.upperBounds()[i]) << "\"} "
             << cumulative << '\n';
        }
        os << e.name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
        os << e.name << "_sum " << num(h.sum()) << '\n';
        os << e.name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

MetricsSink::MetricsSink(MetricsRegistry& registry)
    : registry_(registry),
      eventsScheduled_(registry.counter("mcsim_sim_events_scheduled_total",
                                        "Calendar events scheduled")),
      eventsFired_(registry.counter("mcsim_sim_events_fired_total",
                                    "Calendar events executed")),
      eventsCancelled_(registry.counter("mcsim_sim_events_cancelled_total",
                                        "Calendar events cancelled")),
      transfersStarted_(registry.counter("mcsim_transfers_started_total",
                                         "Link transfers begun")),
      transfersFinished_(registry.counter("mcsim_transfers_finished_total",
                                          "Link transfers completed")),
      transferBytes_(registry.counter("mcsim_transfer_bytes_total",
                                      "Bytes moved over the link")),
      tasksReady_(registry.counter("mcsim_tasks_ready_total",
                                   "Tasks whose dependencies were satisfied")),
      tasksStarted_(registry.counter("mcsim_tasks_started_total",
                                     "Tasks dispatched to a processor")),
      tasksFinished_(registry.counter("mcsim_tasks_finished_total",
                                      "Tasks completed successfully")),
      tasksRetried_(registry.counter("mcsim_tasks_retried_total",
                                     "Failure-injected re-executions")),
      tasksBlocked_(registry.counter("mcsim_tasks_blocked_total",
                                     "Dispatches deferred on storage space")),
      storagePuts_(registry.counter("mcsim_storage_puts_total",
                                    "Objects created on cloud storage")),
      storageErases_(registry.counter("mcsim_storage_erases_total",
                                      "Objects removed from cloud storage")),
      cleanupDeletes_(registry.counter("mcsim_cleanup_deletes_total",
                                       "Files removed by dynamic cleanup")),
      logMessages_(registry.counter("mcsim_log_messages_total",
                                    "Log records routed through the bus")),
      processorCrashes_(registry.counter("mcsim_processor_crashes_total",
                                         "Spot-style mid-task processor losses")),
      tasksFailed_(registry.counter("mcsim_tasks_failed_total",
                                    "Tasks that exhausted their retry budget")),
      tasksAbandoned_(registry.counter(
          "mcsim_tasks_abandoned_total",
          "Tasks skipped because an ancestor permanently failed")),
      wastedCpuSeconds_(registry.counter(
          "mcsim_wasted_cpu_seconds_total",
          "Billed compute lost to crashes and deadline preemption")),
      activeTransfers_(registry.gauge("mcsim_link_active_transfers",
                                      "Transfers currently sharing the link")),
      busyProcessors_(registry.gauge("mcsim_processors_busy",
                                     "Claimed processors")),
      queueDepth_(registry.gauge("mcsim_processor_queue_depth",
                                 "Requests waiting for a processor")),
      residentBytes_(registry.gauge("mcsim_storage_resident_bytes",
                                    "Bytes currently on cloud storage")),
      storageObjects_(registry.gauge("mcsim_storage_objects",
                                     "Objects currently on cloud storage")),
      transferSize_(registry.histogram("mcsim_transfer_size_bytes",
                                       "Distribution of transfer sizes",
                                       powersOfTen(1e3, 1e10))),
      taskWait_(registry.histogram(
          "mcsim_task_wait_seconds",
          "Ready-to-dispatch wait per task",
          {0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0})),
      taskExec_(registry.histogram(
          "mcsim_task_exec_seconds", "Computation time per task",
          {0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0})),
      cacheHits_(registry.counter("mcsim_cache_hits",
                                  "Scenarios served from the memo cache")),
      cacheMisses_(registry.counter("mcsim_cache_misses",
                                    "Scenarios that had to be simulated")),
      cacheEntries_(registry.gauge("mcsim_cache_entries",
                                   "Memo-cache population after the batch")),
      cacheEvictions_(registry.gauge(
          "mcsim_cache_evictions",
          "Cumulative LRU evictions over the cache lifetime")),
      cacheBytes_(registry.gauge("mcsim_cache_bytes",
                                 "Approximate resident memo-cache bytes")),
      workerBusySeconds_(registry.counter(
          "mcsim_runner_worker_busy_seconds_total",
          "Wall-clock runner workers spent simulating scenarios")),
      workerScenarios_(registry.counter(
          "mcsim_runner_worker_scenarios_total",
          "Scenarios executed by runner workers")),
      runnerJobs_(registry.gauge("mcsim_runner_jobs",
                                 "Configured runner parallelism")),
      runnerBatches_(registry.counter("mcsim_runner_batches_total",
                                      "Runner batches executed")),
      runnerBatchSeconds_(registry.counter(
          "mcsim_runner_batch_seconds_total",
          "End-to-end wall-clock across runner batches")),
      runnerCachedScenarios_(registry.counter(
          "mcsim_runner_cached_scenarios_total",
          "Scenarios satisfied without simulation across batches")),
      shardsCompleted_(registry.counter(
          "mcsim_campaign_shards_completed_total",
          "Survey campaign shards simulated to completion")),
      campaignsCompleted_(registry.counter(
          "mcsim_campaigns_completed_total",
          "Survey campaigns simulated to completion")),
      campaignTasks_(registry.counter(
          "mcsim_campaign_tasks_total",
          "Tasks across completed survey campaigns")),
      jobsSubmitted_(registry.counter("mcsim_jobs_submitted_total",
                                      "Jobs admitted to the queue")),
      jobsCompleted_(registry.counter("mcsim_jobs_completed_total",
                                      "Jobs that ran every scenario")),
      jobsFailed_(registry.counter("mcsim_jobs_failed_total",
                                   "Jobs terminated by a scenario failure")),
      jobsCancelled_(registry.counter("mcsim_jobs_cancelled_total",
                                      "Jobs cancelled before completion")),
      jobScenarios_(registry.counter(
          "mcsim_job_scenarios_total",
          "Scenarios across terminally resolved jobs")),
      jobsQueued_(registry.gauge("mcsim_jobs_queued",
                                 "Jobs waiting for a worker")) {
  for (std::size_t i = 0; i < kSimPhaseCount; ++i)
    selfPhaseSeconds_[i] = &registry.counter(
        std::string("mcsim_self_") + simPhaseName(static_cast<SimPhase>(i)) +
            "_seconds_total",
        std::string("Simulator wall-clock spent in the ") +
            simPhaseName(static_cast<SimPhase>(i)) + " phase");
}

bool MetricsSink::accepts(EventKind kind) const {
  switch (kind) {
    case EventKind::SimEventScheduled:
    case EventKind::SimEventFired:
    case EventKind::SimEventCancelled:
    case EventKind::TransferStarted:
    case EventKind::TransferFinished:
    case EventKind::LinkShareChanged:
    case EventKind::ProcessorClaimed:
    case EventKind::ProcessorReleased:
    case EventKind::ProcessorQueued:
    case EventKind::StorageFilePut:
    case EventKind::StorageFileErased:
    case EventKind::StorageSampled:
    case EventKind::TaskReady:
    case EventKind::TaskStarted:
    case EventKind::TaskExecStarted:
    case EventKind::TaskFinished:
    case EventKind::TaskRetried:
    case EventKind::TaskBlocked:
    case EventKind::ProcessorCrashed:
    case EventKind::TaskFailed:
    case EventKind::TaskAbandoned:
    case EventKind::FileCleanupDeleted:
    case EventKind::LogEmitted:
    case EventKind::ScenarioCacheStats:
    case EventKind::PhaseProfile:
    case EventKind::WorkerProfile:
    case EventKind::RunnerBatchProfile:
    case EventKind::ShardCompleted:
    case EventKind::CampaignCompleted:
    case EventKind::JobSubmitted:
    case EventKind::JobFinished:
      return true;
    default:
      return false;
  }
}

void MetricsSink::onEvent(const Event& event) {
  switch (kind(event)) {
    case EventKind::SimEventScheduled: eventsScheduled_.increment(); break;
    case EventKind::SimEventFired: eventsFired_.increment(); break;
    case EventKind::SimEventCancelled: eventsCancelled_.increment(); break;
    case EventKind::TransferStarted: {
      const auto& p = std::get<TransferStarted>(event.payload);
      transfersStarted_.increment();
      transferSize_.observe(p.bytes);
      activeTransfers_.set(static_cast<double>(p.active));
      break;
    }
    case EventKind::TransferFinished: {
      const auto& p = std::get<TransferFinished>(event.payload);
      transfersFinished_.increment();
      transferBytes_.increment(p.bytes);
      activeTransfers_.add(-1.0);
      break;
    }
    case EventKind::LinkShareChanged:
      activeTransfers_.set(static_cast<double>(
          std::get<LinkShareChanged>(event.payload).active));
      break;
    case EventKind::ProcessorClaimed: {
      const auto& p = std::get<ProcessorClaimed>(event.payload);
      busyProcessors_.set(p.busy);
      queueDepth_.set(static_cast<double>(p.queued));
      break;
    }
    case EventKind::ProcessorReleased: {
      const auto& p = std::get<ProcessorReleased>(event.payload);
      busyProcessors_.set(p.busy);
      queueDepth_.set(static_cast<double>(p.queued));
      break;
    }
    case EventKind::ProcessorQueued:
      queueDepth_.set(static_cast<double>(
          std::get<ProcessorQueued>(event.payload).queued));
      break;
    case EventKind::StorageFilePut: {
      const auto& p = std::get<StorageFilePut>(event.payload);
      storagePuts_.increment();
      residentBytes_.set(p.residentBytes);
      storageObjects_.set(static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageFileErased: {
      const auto& p = std::get<StorageFileErased>(event.payload);
      storageErases_.increment();
      residentBytes_.set(p.residentBytes);
      storageObjects_.set(static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageSampled: {
      const auto& p = std::get<StorageSampled>(event.payload);
      residentBytes_.set(p.residentBytes);
      storageObjects_.set(static_cast<double>(p.objects));
      break;
    }
    case EventKind::TaskReady:
      tasksReady_.increment();
      readyAt_[std::get<TaskReady>(event.payload).task] = event.time;
      break;
    case EventKind::TaskStarted: {
      const auto& p = std::get<TaskStarted>(event.payload);
      tasksStarted_.increment();
      if (const auto it = readyAt_.find(p.task); it != readyAt_.end()) {
        taskWait_.observe(event.time - it->second);
        readyAt_.erase(it);
      }
      break;
    }
    case EventKind::TaskExecStarted:
      execAt_[std::get<TaskExecStarted>(event.payload).task] = event.time;
      break;
    case EventKind::TaskFinished: {
      const auto& p = std::get<TaskFinished>(event.payload);
      tasksFinished_.increment();
      if (const auto it = execAt_.find(p.task); it != execAt_.end()) {
        taskExec_.observe(event.time - it->second);
        execAt_.erase(it);
      }
      break;
    }
    case EventKind::TaskRetried: tasksRetried_.increment(); break;
    case EventKind::TaskBlocked: tasksBlocked_.increment(); break;
    case EventKind::ProcessorCrashed:
      processorCrashes_.increment();
      wastedCpuSeconds_.increment(
          std::get<ProcessorCrashed>(event.payload).wastedSeconds);
      break;
    case EventKind::TaskFailed: tasksFailed_.increment(); break;
    case EventKind::TaskAbandoned: tasksAbandoned_.increment(); break;
    case EventKind::FileCleanupDeleted: cleanupDeletes_.increment(); break;
    case EventKind::LogEmitted: logMessages_.increment(); break;
    case EventKind::ScenarioCacheStats: {
      const auto& p = std::get<ScenarioCacheStats>(event.payload);
      cacheHits_.increment(static_cast<double>(p.hits));
      cacheMisses_.increment(static_cast<double>(p.misses));
      cacheEntries_.set(static_cast<double>(p.entries));
      cacheEvictions_.set(static_cast<double>(p.evictions));
      cacheBytes_.set(static_cast<double>(p.bytes));
      break;
    }
    case EventKind::PhaseProfile: {
      const auto& p = std::get<PhaseProfile>(event.payload);
      if (p.phase < kSimPhaseCount)
        selfPhaseSeconds_[p.phase]->increment(p.wallSeconds);
      break;
    }
    case EventKind::WorkerProfile: {
      const auto& p = std::get<WorkerProfile>(event.payload);
      workerBusySeconds_.increment(p.busySeconds);
      workerScenarios_.increment(static_cast<double>(p.scenarios));
      break;
    }
    case EventKind::RunnerBatchProfile: {
      const auto& p = std::get<RunnerBatchProfile>(event.payload);
      runnerJobs_.set(p.jobs);
      runnerBatches_.increment();
      runnerBatchSeconds_.increment(p.wallSeconds);
      runnerCachedScenarios_.increment(static_cast<double>(p.cached));
      break;
    }
    case EventKind::ShardCompleted: {
      shardsCompleted_.increment();
      break;
    }
    case EventKind::CampaignCompleted: {
      const auto& p = std::get<CampaignCompleted>(event.payload);
      campaignsCompleted_.increment();
      campaignTasks_.increment(static_cast<double>(p.tasks));
      break;
    }
    case EventKind::JobSubmitted: {
      const auto& p = std::get<JobSubmitted>(event.payload);
      jobsSubmitted_.increment();
      jobsQueued_.set(static_cast<double>(p.queued));
      break;
    }
    case EventKind::JobFinished: {
      const auto& p = std::get<JobFinished>(event.payload);
      switch (p.outcome) {
        case 2: jobsCompleted_.increment(); break;  // JobState::Completed
        case 3: jobsFailed_.increment(); break;     // JobState::Failed
        case 4: jobsCancelled_.increment(); break;  // JobState::Cancelled
        default: break;
      }
      jobScenarios_.increment(static_cast<double>(p.scenarios));
      break;
    }
    default: break;  // kinds accepts() turns away
  }
}

}  // namespace mcsim::obs
