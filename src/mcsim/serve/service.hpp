// SimulationService: the transport-independent core of `mcsim serve`.
//
// One service owns the whole server-side stack — a capacity-bounded
// ScenarioMemoCache shared across requests and a persistent
// runner::JobQueue.  handle() maps one protocol request (see protocol.hpp)
// to one response; the daemon, the CLI client loopback tests and the unit
// tests all talk to this same object, so the socket layer stays a dumb
// byte pump.  A WorkflowSpecMemo keeps the generator-built workflows
// requests name, so a repeated spec is neither rebuilt nor re-hashed.
//
// Isolation: a submit with "events":true gets a private JSONL session, and
// its merged event stream comes back with the result, never interleaved
// with another request's stream; a submit without it has no observer and
// captures no scenario stream at all, so its cache entries hold results
// only and a hit replays nothing.  The Prometheus exposition holds the
// service's own series only — cache, jobs, queue depth — read from the
// cache's and the queue's counters at scrape time.  Per-run simulated
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

  /// The Prometheus text exposition of the cache's and the queue's
  /// counters, read at call time.  Thread-safe.
  std::string metricsText() const;

  const ServiceOptions& options() const { return options_; }
  runner::JobQueue& queue() { return queue_; }
  const runner::ScenarioMemoCache& cache() const { return cache_; }
  const WorkflowSpecMemo& specMemo() const { return specs_; }

 private:
  /// The private JSONL stream of a submit that asked for events.
  struct Session;

  json::JsonValue handleSubmit(const json::JsonValue& request);
  json::JsonValue handleStatus(const json::JsonValue& request);
  json::JsonValue handleResult(const json::JsonValue& request);
  json::JsonValue handleCancel(const json::JsonValue& request);

  ServiceOptions options_;
  WorkflowSpecMemo specs_;
  runner::ScenarioMemoCache cache_;

  std::mutex sessionsMutex_;
  std::map<runner::JobId, std::unique_ptr<Session>> sessions_;

  /// Declared last: the queue's destructor joins workers that may still be
  /// merging job streams into the sessions above.
  runner::JobQueue queue_;
};

}  // namespace mcsim::serve
