#include "mcsim/serve/service.hpp"

#include <exception>
#include <optional>
#include <sstream>
#include <utility>

#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/version.hpp"

namespace mcsim::serve {
namespace {

json::JsonValue errorResponse(const json::JsonValue& request,
                              const std::string& what,
                              bool retryable = false) {
  json::JsonObject o;
  o["ok"] = false;
  o["error"] = what;
  if (retryable) o["retryable"] = true;
  if (request.has("id")) o["id"] = request.at("id");
  return json::JsonValue(std::move(o));
}

json::JsonObject okResponse(const json::JsonValue& request) {
  json::JsonObject o;
  o["ok"] = true;
  if (request.has("id")) o["id"] = request.at("id");
  return o;
}

/// The keys the envelope of `verb` takes, or nullptr for an unknown verb.
const std::vector<std::string>* envelopeKeys(const std::string& verb) {
  static const std::vector<std::string> kPlain = {"verb", "id"};
  static const std::vector<std::string> kSubmit = {"verb", "id", "request"};
  static const std::vector<std::string> kJob = {"verb", "id", "job"};
  if (verb == "submit") return &kSubmit;
  if (verb == "status" || verb == "result" || verb == "cancel") return &kJob;
  if (verb == "metrics" || verb == "ping" || verb == "shutdown") return &kPlain;
  return nullptr;
}

}  // namespace

struct SimulationService::Session {
  std::ostringstream os;
  obs::JsonlSink jsonl{os};
};

SimulationService::SimulationService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      queue_({.workers = options_.workers,
              .maxQueuedJobs = options_.maxQueuedJobs,
              .cache = &cache_}) {}

SimulationService::~SimulationService() = default;

json::JsonValue SimulationService::handle(const json::JsonValue& request) {
  try {
    if (!request.isObject() || !request.has("verb") ||
        !request.at("verb").isString())
      return errorResponse(request, "request needs a string 'verb'");
    const std::string& verb = request.at("verb").asString();
    const std::vector<std::string>* keys = envelopeKeys(verb);
    if (keys == nullptr)
      return errorResponse(request, "unknown verb '" + verb + "'");
    if (auto error = json::unknownKeyError(request, verb, *keys))
      return errorResponse(request, *error);
    if (verb == "submit") return handleSubmit(request);
    if (verb == "status") return handleStatus(request);
    if (verb == "result") return handleResult(request);
    if (verb == "cancel") return handleCancel(request);
    if (verb == "metrics") {
      json::JsonObject o = okResponse(request);
      o["metrics"] = metricsText();
      return json::JsonValue(std::move(o));
    }
    if (verb == "ping") {
      json::JsonObject o = okResponse(request);
      o["service"] = std::string("mcsim-serve");
      o["version"] = versionString();
      o["workers"] = options_.workers;
      o["queued_jobs"] = queue_.queuedJobs();
      o["live_jobs"] = queue_.liveJobs();
      return json::JsonValue(std::move(o));
    }
    // shutdown: the transport layer owns the actual stop; acknowledging
    // here keeps the service transport-independent.
    json::JsonObject o = okResponse(request);
    o["shutting_down"] = true;
    return json::JsonValue(std::move(o));
  } catch (const std::exception& e) {
    return errorResponse(request, e.what());
  }
}

json::JsonValue SimulationService::handleSubmit(
    const json::JsonValue& request) {
  if (!request.has("request"))
    return errorResponse(request, "submit needs a 'request' object");
  SubmitRequest sub = parseSubmitRequest(request.at("request"), &specs_);
  std::unique_ptr<Session> session;
  if (sub.events) session = std::make_unique<Session>();

  runner::JobRequest job;
  job.scenarios = std::move(sub.scenarios);
  job.options.baseSeed = sub.baseSeed;
  if (session) job.options.observer = &session->jsonl;
  job.label = std::move(sub.label);
  job.keepAlive = std::move(sub.workflows);
  const std::size_t total = job.scenarios.size();

  const std::optional<runner::JobId> id = queue_.trySubmit(std::move(job));
  if (!id) return errorResponse(request, "queue full", /*retryable=*/true);
  if (session) {
    const std::lock_guard<std::mutex> lock(sessionsMutex_);
    sessions_.emplace(*id, std::move(session));
  }

  json::JsonObject o = okResponse(request);
  o["job"] = *id;
  o["scenarios"] = total;
  o["queued_jobs"] = queue_.queuedJobs();
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleStatus(
    const json::JsonValue& request) {
  const runner::JobStatus status = queue_.status(parseJobId(request));
  json::JsonObject o = okResponse(request);
  o["job"] = status.id;
  o["state"] = std::string(runner::jobStateName(status.state));
  o["completed_scenarios"] = status.completedScenarios;
  o["total_scenarios"] = status.totalScenarios;
  o["label"] = status.label;
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleResult(
    const json::JsonValue& request) {
  const runner::JobId id = parseJobId(request);
  const runner::JobOutcome outcome = queue_.wait(id);

  std::unique_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(sessionsMutex_);
    if (const auto it = sessions_.find(id); it != sessions_.end()) {
      session = std::move(it->second);
      sessions_.erase(it);
    }
  }

  json::JsonObject o = okResponse(request);
  o["job"] = outcome.id;
  o["state"] = std::string(runner::jobStateName(outcome.state));
  o["label"] = outcome.label;
  o["cached_scenarios"] = outcome.cachedScenarios;
  if (outcome.state == runner::JobState::Completed)
    o["results"] = scenarioResultsToJson(outcome.results, options_.pricing);
  if (!outcome.error.empty()) o["error"] = outcome.error;
  if (session) o["events_jsonl"] = session->os.str();
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleCancel(
    const json::JsonValue& request) {
  const runner::JobId id = parseJobId(request);
  json::JsonObject o = okResponse(request);
  o["job"] = id;
  o["cancelled"] = queue_.cancel(id);
  return json::JsonValue(std::move(o));
}

std::string SimulationService::metricsText() const {
  const runner::MemoStats cache = cache_.stats();
  const runner::JobQueueStats jobs = queue_.stats();
  const auto real = [](auto value) { return static_cast<double>(value); };
  obs::MetricsRegistry registry;
  registry.counter("mcsim_cache_hits", "Scenarios served from the memo cache")
      .increment(real(cache.hits));
  registry.counter("mcsim_cache_misses", "Scenarios that had to be simulated")
      .increment(real(cache.misses));
  registry
      .gauge("mcsim_cache_entries", "Memo-cache population at scrape time")
      .set(real(cache.entries));
  registry
      .counter("mcsim_cache_evictions",
               "Cumulative LRU evictions over the cache lifetime")
      .increment(real(cache.evictions));
  registry.gauge("mcsim_cache_bytes", "Approximate resident memo-cache bytes")
      .set(real(cache.bytes));
  registry.counter("mcsim_jobs_submitted_total", "Jobs admitted to the queue")
      .increment(real(jobs.submitted));
  registry
      .counter("mcsim_jobs_completed_total", "Jobs that ran every scenario")
      .increment(real(jobs.completed));
  registry
      .counter("mcsim_jobs_failed_total",
               "Jobs terminated by a scenario failure")
      .increment(real(jobs.failed));
  registry
      .counter("mcsim_jobs_cancelled_total",
               "Jobs cancelled before completion")
      .increment(real(jobs.cancelled));
  registry
      .counter("mcsim_job_scenarios_total",
               "Scenarios across terminally resolved jobs")
      .increment(real(jobs.resolvedScenarios));
  registry.gauge("mcsim_jobs_queued", "Jobs waiting for a worker")
      .set(real(queue_.queuedJobs()));
  std::ostringstream os;
  registry.writePrometheus(os);
  return os.str();
}

}  // namespace mcsim::serve
