// Metrics registry: counters, gauges and fixed-bucket histograms with a
// Prometheus-style text exposition, plus a MetricsSink that derives the
// standard mcsim_* instrument set from the event stream.
//
// The simulator is single-threaded, so instruments are plain doubles — no
// atomics.  Instruments are owned by the registry and referenced by pointer;
// registering the same name twice returns the existing instrument (so
// multiple sinks can share a registry), registering it as a different type
// throws.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcsim/obs/selfprofile.hpp"
#include "mcsim/obs/sink.hpp"

namespace mcsim::obs {

class Counter {
 public:
  void increment(double amount = 1.0) { value_ += amount; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed upper-bound buckets (ascending; an implicit +Inf bucket catches the
/// rest), plus sum and count — enough to recover means and coarse quantiles
/// of e.g. transfer sizes and task wait times.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value);

  const std::vector<double>& upperBounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upperBounds);

  std::size_t instrumentCount() const { return entries_.size(); }

  /// Prometheus text exposition format v0.0.4, instruments in registration
  /// order (deterministic output for diffing runs).
  void writePrometheus(std::ostream& os) const;

 private:
  enum class Type { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    std::string help;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, const std::string& help,
                      Type type);

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> byName_;
};

/// Translates the event stream into the standard instrument set:
/// counters (events, transfers, bytes, task lifecycle, retries, storage
/// churn), gauges (active transfers, busy processors, queue depth, resident
/// bytes) and histograms (transfer sizes, task wait and execution times).
class MetricsSink final : public Sink {
 public:
  explicit MetricsSink(MetricsRegistry& registry);

  void onEvent(const Event& event) override;
  /// Exactly the kinds onEvent() folds into an instrument.  Transfer
  /// progress, link suspend/resume, run markers, staging, billing line
  /// items, retry scheduling, storage outages, deadlines and job starts
  /// feed nothing here.
  bool accepts(EventKind kind) const override;

 private:
  MetricsRegistry& registry_;

  Counter& eventsScheduled_;
  Counter& eventsFired_;
  Counter& eventsCancelled_;
  Counter& transfersStarted_;
  Counter& transfersFinished_;
  Counter& transferBytes_;
  Counter& tasksReady_;
  Counter& tasksStarted_;
  Counter& tasksFinished_;
  Counter& tasksRetried_;
  Counter& tasksBlocked_;
  Counter& storagePuts_;
  Counter& storageErases_;
  Counter& cleanupDeletes_;
  Counter& logMessages_;
  Counter& processorCrashes_;
  Counter& tasksFailed_;
  Counter& tasksAbandoned_;
  Counter& wastedCpuSeconds_;
  Gauge& activeTransfers_;
  Gauge& busyProcessors_;
  Gauge& queueDepth_;
  Gauge& residentBytes_;
  Gauge& storageObjects_;
  Histogram& transferSize_;
  Histogram& taskWait_;
  Histogram& taskExec_;
  // Self-profiling + runner instruments (PR-6 observability layer).
  Counter& cacheHits_;
  Counter& cacheMisses_;
  Gauge& cacheEntries_;
  // Server-cache instruments (PR-8 serve layer).  Evictions and bytes are
  // cumulative/instantaneous in the event, so both are gauges.
  Gauge& cacheEvictions_;
  Gauge& cacheBytes_;
  Counter& workerBusySeconds_;
  Counter& workerScenarios_;
  Gauge& runnerJobs_;
  Counter& runnerBatches_;
  Counter& runnerBatchSeconds_;
  Counter& runnerCachedScenarios_;
  // Survey campaign instruments (PR-7 survey-scale workloads).
  Counter& shardsCompleted_;
  Counter& campaignsCompleted_;
  Counter& campaignTasks_;
  // Job-queue lifecycle instruments (PR-8 serve layer).
  Counter& jobsSubmitted_;
  Counter& jobsCompleted_;
  Counter& jobsFailed_;
  Counter& jobsCancelled_;
  Counter& jobScenarios_;
  Gauge& jobsQueued_;
  /// Simulator wall-clock per internal phase, indexed by obs::SimPhase.
  std::array<Counter*, kSimPhaseCount> selfPhaseSeconds_{};

  /// TaskReady/TaskExecStarted times, pending the matching start/finish.
  std::unordered_map<std::uint32_t, double> readyAt_;
  std::unordered_map<std::uint32_t, double> execAt_;
};

}  // namespace mcsim::obs
