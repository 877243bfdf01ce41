// SimulationService: the transport-independent core of `mcsim serve`.
//
// One service owns the whole server-side stack — a capacity-bounded
// ScenarioMemoCache shared across requests, a persistent runner::JobQueue,
// and a MetricsRegistry fed by a mutex-wrapped MetricsSink that observes
// the queue's lifecycle events and each job's scenario_cache_stats event.
// handle() maps one protocol request (see protocol.hpp) to one response;
// the daemon, the CLI client loopback tests and the unit tests all talk to
// this same object, so the socket layer stays a dumb byte pump.  A
// WorkflowSpecMemo keeps the generator-built workflows requests name, so a
// repeated spec is neither rebuilt nor re-hashed.
//
// Isolation: each submit gets a private telemetry session.  A submit with
// "events":true gets its merged event stream as JSONL with the result,
// never interleaved with another request's stream; a submit without it
// captures no scenario stream at all, so its cache entries hold results
// only and a hit replays nothing.  The Prometheus exposition aggregates the
// service's own instruments — cache, job lifecycle, queue depth — across
// all requests.  The simulated-cloud instruments MetricsSink also registers
// (tasks, transfers, storage) are not fed and read zero: per-run simulated
// telemetry lives in events:true replies and `mcsim simulate
// --telemetry-dir`.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "mcsim/cloud/pricing.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/json.hpp"

namespace mcsim::serve {

struct ServiceOptions {
  /// Worker threads in the persistent pool; 0 runs jobs inline in the
  /// connection thread (useful for tests and tiny deployments).
  int workers = runner::defaultJobs();
  /// Backpressure bound: submits beyond this many queued jobs are refused
  /// with {"ok":false,"error":"queue full","retryable":true}.
  std::size_t maxQueuedJobs = 64;
  /// Server memo cache bounds; the defaults keep a warm working set while
  /// holding a long-lived daemon to a predictable footprint.
  runner::MemoCacheOptions cache{/*maxEntries=*/256,
                                 /*maxBytes=*/256u << 20};
  /// Pricing used for the cost block of every result.
  cloud::Pricing pricing = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
};

class SimulationService {
 public:
  explicit SimulationService(ServiceOptions options = {});
  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;
  ~SimulationService();

  /// Handle one protocol request.  Never throws: malformed or failing
  /// requests come back as {"ok":false,"error":...}.  Thread-safe; the
  /// "result" verb blocks its calling thread until the job is terminal.
  json::JsonValue handle(const json::JsonValue& request);

  /// The Prometheus text exposition, refreshed with the cache's
  /// instantaneous entries/bytes/evictions at scrape time.
  std::string metricsText();

  const ServiceOptions& options() const { return options_; }
  runner::JobQueue& queue() { return queue_; }
  const runner::ScenarioMemoCache& cache() const { return cache_; }
  const WorkflowSpecMemo& specMemo() const { return specs_; }

 private:
  /// Per-job telemetry session: the job's private merged stream, captured
  /// as JSONL when the submit asked for events, and its cache-stats event
  /// teed into the shared (mutex-guarded) metrics sink.
  struct Session;

  json::JsonValue handleSubmit(const json::JsonValue& request);
  json::JsonValue handleStatus(const json::JsonValue& request);
  json::JsonValue handleResult(const json::JsonValue& request);
  json::JsonValue handleCancel(const json::JsonValue& request);

  ServiceOptions options_;
  WorkflowSpecMemo specs_;
  runner::ScenarioMemoCache cache_;
  obs::MetricsRegistry registry_;
  obs::MetricsSink metricsSink_;
  obs::MutexSink sharedMetrics_;  ///< Serializes all registry writes.

  std::mutex sessionsMutex_;
  std::map<runner::JobId, std::unique_ptr<Session>> sessions_;

  /// Declared last: the queue's destructor joins workers that may still be
  /// merging job streams into the sessions above.
  runner::JobQueue queue_;
};

}  // namespace mcsim::serve
