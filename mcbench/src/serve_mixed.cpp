// serve_mixed: closed-loop clients of the `mcsim serve` daemon over its
// AF_UNIX socket.  Every request is what `mcsim request --workflow
// montage:D --procs 1,2,4,8,16,32,64,128 --mode M` sends (EXPERIMENTS.md,
// "Serving results instead of re-running"): one mosaic, one mode, the
// paper's processor ladder at the default 10 Mbps link, as a submit
// followed by a result.  M is regular or cleanup, the two modes of the
// paper's provisioning ladders (Figs 4-6).
//
// No recorded serve traffic exists, so the mix around that request shape
// is assumed: two closed-loop clients on a two-worker daemon, and one
// operation is two requests from one client in seeded order — one for a
// popular mosaic (1°, 2° or 4°, the paper's three; the daemon's cache holds
// these after bring-up) and one for a fresh mosaic size between 0.5° and
// 4° that the daemon must simulate.  Half the requests repeat; the
// measured share of scenarios answered from the cache is cache_hit_rate.
// The metrics verb is left out: a scrape that races a finishing job can
// deadlock the daemon (SimulationService::metricsText takes the metrics
// lock, then the queue's; the queue emits job lifecycle events into the
// metrics sink while holding its own lock).
//
// Traced runs replay each answered request in the client, outside the timed
// round trips: parse it, fingerprint, simulate on a miss of a mirror cache,
// price and render — the daemon's layers timed from outside the daemon.
// The mirror cache is warmed with the same popular requests as the daemon's.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "mcsim/analysis/experiments.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/runner/runner.hpp"
#include "mcsim/serve/client.hpp"
#include "mcsim/serve/daemon.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/rng.hpp"
#include "pipeline.hpp"

namespace mcbench {
namespace {

using namespace mcsim;
using json::JsonArray;
using json::JsonObject;
using json::JsonValue;

constexpr int kClients = 2;
constexpr int kDaemonWorkers = 2;
constexpr const char* kSocket = ".bench_build/mcbench-serve.sock";
constexpr const char* kPopular[] = {"montage:1", "montage:2", "montage:4"};
constexpr const char* kModes[] = {"regular", "cleanup"};
constexpr double kBandwidthMbps = 10.0;  // `mcsim request`'s default.
constexpr std::size_t kReferenceChecks = 12;

/// The submit body `mcsim request` builds for `workflow` and `mode`.
JsonValue ladderRequest(const std::string& workflow, const std::string& mode) {
  JsonArray scenarios;
  for (int p : analysis::defaultProcessorLadder()) {
    JsonObject s;
    s["mode"] = mode;
    s["processors"] = p;
    s["bandwidth_mbps"] = kBandwidthMbps;
    scenarios.push_back(JsonValue(std::move(s)));
  }
  JsonObject body;
  body["workflow"] = workflow;
  body["scenarios"] = std::move(scenarios);
  return JsonValue(std::move(body));
}

/// Submit `body` and fetch its result, as `mcsim request` does.  Returns
/// the reply to `result`, or the submit's refusal.
JsonValue roundTrip(serve::ServeClient& client, const JsonValue& body) {
  JsonObject submit;
  submit["verb"] = std::string("submit");
  submit["request"] = body;
  const JsonValue accepted = client.call(JsonValue(std::move(submit)));
  if (!accepted.at("ok").asBool()) return accepted;
  JsonObject result;
  result["verb"] = std::string("result");
  result["job"] = accepted.at("job");
  return client.call(JsonValue(std::move(result)));
}

bool completed(const JsonValue& answer) {
  return answer.at("ok").asBool() &&
         answer.at("state").asString() == "completed";
}

/// A scenario's result as the protocol reports it, without the fields that
/// legitimately differ between identical scenarios.
std::string canonical(const JsonValue& result) {
  JsonObject o = result.asObject();
  o.erase("from_cache");
  o.erase("index");
  o.erase("label");
  return json::dumpJson(JsonValue(std::move(o)));
}

/// One distinct scenario key seen on the wire, with its first answer.
struct Seen {
  std::string workflow;
  JsonValue scenario;
  std::string answer;
};

class ServeMixed {
 public:
  explicit ServeMixed(const Options& options)
      : options_(options),
        daemon_({.socketPath = kSocket,
                 .service = {.workers = kDaemonWorkers,
                             .pricing = loadPricing()}}),
        mirror_(daemon_.service().options().cache) {
    daemon_.start();
    for (int c = 0; c < kClients; ++c)
      clients_.push_back(std::make_unique<serve::ServeClient>(kSocket));
    for (const char* wf : kPopular)
      tasks_[wf] = serve::loadWorkflowSpec(wf).taskCount();
    warmUp(*clients_.front());
  }

  void run(Report& report) {
    std::vector<Report> perClient(kClients);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(options_.seconds);
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        Rng rng(runner::deriveSeed(options_.seed, c));
        try {
          while (Clock::now() < deadline)
            operation(*clients_[c], rng, perClient[c]);
        } catch (const std::exception& e) {
          ++perClient[c].failed;
          perClient[c].check(false, std::string("serve client: ") + e.what());
        }
      });
    for (std::thread& t : threads) t.join();
    report.windowSeconds = secondsSince(start);
    for (Report& r : perClient) {
      report.opSeconds.insert(report.opSeconds.end(), r.opSeconds.begin(),
                              r.opSeconds.end());
      report.opLayers.insert(report.opLayers.end(), r.opLayers.begin(),
                             r.opLayers.end());
      report.tasksDelivered += r.tasksDelivered;
      report.failed += r.failed;
      report.cacheHits += r.cacheHits;
      report.cacheLookups += r.cacheLookups;
      report.engineRuns += r.engineRuns;
      report.engineTasks += r.engineTasks;
      for (const std::string& e : r.errors) report.check(false, e);
    }
    checkAgainstEngine(report);
  }

 private:
  /// Request every popular ladder once, so timing starts with them in the
  /// daemon's cache (and, traced, in the mirror), as in steady state.
  void warmUp(serve::ServeClient& client) {
    for (const char* workflow : kPopular)
      for (const char* mode : kModes) {
        const JsonValue body = ladderRequest(workflow, mode);
        const JsonValue answer = roundTrip(client, body);
        if (!completed(answer))
          throw std::runtime_error("serve: warm-up failed: " +
                                   json::dumpJson(answer));
        if (options_.trace) {
          LayerTimes unused;
          Report discarded;
          replay(body, unused, discarded);
        }
      }
  }

  /// A popular and a fresh ladder request, in seeded order, timed from the
  /// first submit to the second result.
  void operation(serve::ServeClient& client, Rng& rng, Report& report) {
    std::int64_t milli = 0;
    while (milli % 1000 == 0) milli = rng.uniformInt(500, 4000);
    char fresh[32];
    std::snprintf(fresh, sizeof fresh, "montage:%.3f",
                  static_cast<double>(milli) / 1000.0);
    const char* popular = kPopular[rng.uniformInt(0, std::size(kPopular) - 1)];
    std::vector<JsonValue> bodies = {
        ladderRequest(popular, kModes[rng.uniformInt(0, 1)]),
        ladderRequest(fresh, kModes[rng.uniformInt(0, 1)])};
    if (rng.chance(0.5)) std::swap(bodies[0], bodies[1]);

    std::vector<JsonValue> answers;
    const auto t0 = Clock::now();
    for (const JsonValue& body : bodies)
      answers.push_back(roundTrip(client, body));
    const double latency = secondsSince(t0);

    bool ok = true;
    for (std::size_t i = 0; i < bodies.size(); ++i)
      ok = accept(bodies[i], answers[i], report) && ok;
    if (!ok) {
      ++report.failed;
      return;
    }
    report.opSeconds.push_back(latency);
    if (options_.trace) {
      LayerTimes layers;
      for (const JsonValue& body : bodies) replay(body, layers, report);
      report.opLayers.push_back(layers);
    }
  }

  /// Checks one answered request and counts what it delivered.
  bool accept(const JsonValue& body, const JsonValue& answer, Report& report) {
    const std::string workflow = body.at("workflow").asString();
    if (!completed(answer)) {
      report.check(false, "serve: " + json::dumpJson(body) +
                              " failed: " + json::dumpJson(answer));
      return false;
    }
    const JsonArray& scenarios = body.at("scenarios").asArray();
    const JsonArray& results = answer.at("results").asArray();
    report.check(results.size() == scenarios.size(), "serve: result count");
    const auto known = tasks_.find(workflow);
    for (std::size_t i = 0; i < results.size() && i < scenarios.size(); ++i) {
      const double tasks = results[i].at("tasks_executed").asNumber();
      report.check(results[i].at("completed").asBool() && tasks > 0.0 &&
                       tasks == results[0].at("tasks_executed").asNumber() &&
                       (known == tasks_.end() ||
                        tasks == static_cast<double>(known->second)),
                   "serve: " + workflow + " ran a partial workflow");
      report.tasksDelivered += static_cast<std::uint64_t>(tasks);
      ++report.cacheLookups;
      if (results[i].at("from_cache").asBool())
        ++report.cacheHits;
      else
        ++report.engineRuns;
      remember(workflow + json::dumpJson(scenarios[i]), workflow,
               scenarios[i], canonical(results[i]), report);
    }
    return true;
  }

  /// Identical scenarios must get identical answers, cached or not.
  void remember(const std::string& key, const std::string& workflow,
                const JsonValue& scenario, std::string answer,
                Report& report) {
    const std::lock_guard<std::mutex> lock(seenMutex_);
    auto [it, fresh] =
        seen_.try_emplace(key, Seen{workflow, scenario, answer});
    report.check(fresh || it->second.answer == answer,
                 "serve: " + key + " answered differently on a repeat");
  }

  /// The daemon's layers for one request, called directly and timed into
  /// `layers`.  Only the engine's task count is kept: engine_runs comes
  /// from the daemon's own from_cache flags.
  void replay(const JsonValue& body, LayerTimes& layers, Report& report) {
    const serve::SubmitRequest request = timed(
        layers.dag, [&] { return serve::parseSubmitRequest(body); });
    Report scratch;
    const auto results =
        runBatch(request.scenarios, nullptr, mirror_, layers, scratch);
    std::vector<cloud::CostBreakdown> costs;
    priceAndRender(results,
                   std::vector<std::size_t>(results.size(),
                                            request.workflows[0]->taskCount()),
                   daemon_.service().options().pricing,
                   cloud::CpuBillingMode::Usage,
                   cloud::BillingGranularity::PerSecond, costs, layers,
                   scratch);
    report.engineTasks += scratch.engineTasks;
    for (const std::string& e : scratch.errors) report.check(false, e);
  }

  /// Answers seen on the wire equal an in-process engine run, for a sample
  /// spread over the distinct keys.
  void checkAgainstEngine(Report& report) {
    const std::size_t stride =
        std::max<std::size_t>(1, seen_.size() / kReferenceChecks);
    std::size_t i = 0;
    for (const auto& [key, seen] : seen_) {
      if (i++ % stride) continue;
      JsonObject body;
      body["workflow"] = seen.workflow;
      body["scenarios"] = JsonArray{seen.scenario};
      const serve::SubmitRequest request =
          serve::parseSubmitRequest(JsonValue(std::move(body)));
      runner::ScenarioResult direct;
      direct.result = engine::simulateWorkflow(*request.workflows[0],
                                               request.scenarios[0].config);
      report.check(canonical(serve::scenarioResultToJson(
                       direct, daemon_.service().options().pricing)) ==
                       seen.answer,
                   "serve: " + key + " differs from a direct engine run");
    }
  }

  Options options_;
  serve::ServeDaemon daemon_;
  std::vector<std::unique_ptr<serve::ServeClient>> clients_;
  std::map<std::string, std::size_t> tasks_;  ///< Popular mosaics' sizes.
  runner::ScenarioMemoCache mirror_;  ///< Traced replay's cache, sized as the daemon's.
  std::mutex seenMutex_;
  std::map<std::string, Seen> seen_;
};

}  // namespace

Report runServeMixed(const Options& options) {
  Report report;
  const std::unique_ptr<ServeMixed> bench =
      bringUp<ServeMixed>(options, report);
  bench->run(report);
  return report;
}

}  // namespace mcbench
