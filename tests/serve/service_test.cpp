// SimulationService: the transport-independent server core.  The headline
// contracts under test: per-request results byte-identical to the same
// batch run inline (including with >= 8 concurrent in-flight requests),
// backpressure as a retryable refusal, per-request event isolation, a
// live Prometheus exposition, and one shared workflow per repeated
// generator spec within a fixed task budget.
#include "mcsim/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/serve/protocol.hpp"

namespace mcsim::serve {
namespace {

json::JsonValue submitVerb(const std::string& workflow,
                           const std::vector<int>& procs,
                           bool events = false) {
  json::JsonArray scenarios;
  for (int p : procs) {
    json::JsonObject s;
    s["mode"] = std::string("regular");
    s["processors"] = p;
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = workflow;
  request["scenarios"] = std::move(scenarios);
  if (events) request["events"] = true;
  json::JsonObject verb;
  verb["verb"] = std::string("submit");
  verb["request"] = std::move(request);
  return json::JsonValue(std::move(verb));
}

json::JsonValue jobVerb(const std::string& verb, double job) {
  json::JsonObject o;
  o["verb"] = verb;
  o["job"] = job;
  return json::JsonValue(std::move(o));
}

/// Strip the `from_cache` provenance flag from a results array: whether a
/// request was served from the shared server cache depends on how warm it
/// was, but every simulated value must stay byte-identical regardless.
json::JsonValue scrubProvenance(const json::JsonValue& results) {
  json::JsonArray scrubbed;
  for (const json::JsonValue& r : results.asArray()) {
    json::JsonObject o = r.asObject();
    o.erase("from_cache");
    scrubbed.push_back(json::JsonValue(std::move(o)));
  }
  return json::JsonValue(std::move(scrubbed));
}

/// The batch-mode golden for a submit of `procs` against `workflow`.
std::string batchGolden(const std::string& workflow,
                        const std::vector<int>& procs,
                        const cloud::Pricing& pricing) {
  const dag::Workflow wf = loadWorkflowSpec(workflow);
  std::vector<runner::ScenarioSpec> specs;
  for (int p : procs) {
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = p;
    specs.push_back(spec);
  }
  return json::dumpJson(scrubProvenance(
      scenarioResultsToJson(runner::runOnQueue(nullptr, specs), pricing)));
}

TEST(SimulationService, PingAndUnknownVerb) {
  SimulationService service({.workers = 0});
  json::JsonObject ping;
  ping["verb"] = std::string("ping");
  ping["id"] = 7;
  const json::JsonValue pong = service.handle(json::JsonValue(ping));
  EXPECT_TRUE(pong.at("ok").asBool());
  EXPECT_EQ(pong.at("id").asNumber(), 7.0);
  EXPECT_EQ(pong.at("service").asString(), "mcsim-serve");

  json::JsonObject bogus;
  bogus["verb"] = std::string("frobnicate");
  const json::JsonValue err = service.handle(json::JsonValue(bogus));
  EXPECT_FALSE(err.at("ok").asBool());
  EXPECT_NE(err.at("error").asString().find("unknown verb"),
            std::string::npos);
  // handle() never throws, even on non-object requests.
  EXPECT_FALSE(service.handle(json::JsonValue(3.0)).at("ok").asBool());
}

TEST(SimulationService, SubmitResultMatchesBatchGolden) {
  SimulationService service({.workers = 2});
  const std::vector<int> procs = {1, 4};
  const json::JsonValue submitted =
      service.handle(submitVerb("montage:0.2", procs));
  ASSERT_TRUE(submitted.at("ok").asBool());
  EXPECT_EQ(submitted.at("scenarios").asNumber(), 2.0);

  const json::JsonValue reply =
      service.handle(jobVerb("result", submitted.at("job").asNumber()));
  ASSERT_TRUE(reply.at("ok").asBool());
  EXPECT_EQ(reply.at("state").asString(), "completed");
  EXPECT_EQ(json::dumpJson(scrubProvenance(reply.at("results"))),
            batchGolden("montage:0.2", procs, service.options().pricing));
}

/// The serve CI ladder as `mcsim request --workflow montage:1 --procs
/// 1,2,4,8 --mode cleanup` sends it, answered by a fresh service: its
/// results must equal the committed golden byte for byte (CI compares both
/// of its daemons' replies with the same file).
TEST(SimulationService, CiLadderMatchesItsGolden) {
  json::JsonArray scenarios;
  for (int p : {1, 2, 4, 8}) {
    json::JsonObject s;
    s["mode"] = std::string("cleanup");
    s["processors"] = p;
    s["bandwidth_mbps"] = 10.0;
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = std::string("montage:1");
  request["scenarios"] = std::move(scenarios);
  json::JsonObject submit;
  submit["verb"] = std::string("submit");
  submit["request"] = std::move(request);

  SimulationService service({.workers = 0});
  const json::JsonValue submitted = service.handle(json::JsonValue(submit));
  ASSERT_TRUE(submitted.at("ok").asBool());
  const json::JsonValue reply =
      service.handle(jobVerb("result", submitted.at("job").asNumber()));
  ASSERT_EQ(reply.at("state").asString(), "completed");

  std::ifstream in(MCSIM_GOLDEN_DIR "/serve_ladder_montage1.json",
                   std::ios::binary);
  ASSERT_TRUE(in) << "cannot read the serve golden";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json::dumpJson(reply.at("results")) + "\n", golden.str());
}

TEST(SimulationService, EightConcurrentRequestsStayByteIdentical) {
  SimulationService service({.workers = 4, .maxQueuedJobs = 32});
  const std::vector<int> procs = {1, 2, 4};
  const std::string golden =
      batchGolden("montage:0.2", procs, service.options().pricing);

  constexpr int kRequests = 8;
  std::vector<double> jobs(kRequests, 0.0);
  for (int i = 0; i < kRequests; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", procs));
    ASSERT_TRUE(submitted.at("ok").asBool()) << "request " << i;
    jobs[i] = submitted.at("job").asNumber();
  }
  // All eight are in flight before the first result is claimed; claim them
  // from concurrent threads like eight independent clients would.
  std::vector<std::string> rendered(kRequests);
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      const json::JsonValue reply =
          service.handle(jobVerb("result", jobs[i]));
      if (reply.at("ok").asBool() &&
          reply.at("state").asString() == "completed")
        rendered[i] = json::dumpJson(scrubProvenance(reply.at("results")));
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(rendered[i], golden);
  }
}

TEST(SimulationService, BackpressureIsRetryable) {
  // workers=1 and a depth-1 admission queue: hammering submits must produce
  // at least one {"ok":false,"retryable":true} refusal and zero crashes.
  // The first job (eight distinct scenarios, so no cache hits) keeps the
  // only worker busy while the rest arrive; the small repeats behind it
  // are cache hits, which finish faster than a submit is parsed.
  SimulationService service({.workers = 1, .maxQueuedJobs = 1});
  int refused = 0;
  std::vector<double> jobs;
  const json::JsonValue first =
      service.handle(submitVerb("montage:1", {1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_TRUE(first.at("ok").asBool());
  jobs.push_back(first.at("job").asNumber());
  for (int i = 0; i < 8; ++i) {
    const json::JsonValue reply =
        service.handle(submitVerb("montage:0.2", {1}));
    if (reply.at("ok").asBool()) {
      jobs.push_back(reply.at("job").asNumber());
    } else {
      EXPECT_EQ(reply.at("error").asString(), "queue full");
      EXPECT_TRUE(reply.at("retryable").asBool());
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
  for (double job : jobs) {
    const json::JsonValue reply = service.handle(jobVerb("result", job));
    EXPECT_TRUE(reply.at("ok").asBool());
  }
}

TEST(SimulationService, EventsComeBackIsolatedPerRequest) {
  SimulationService service({.workers = 2});
  const json::JsonValue with =
      service.handle(submitVerb("montage:0.2", {1}, /*events=*/true));
  const json::JsonValue without =
      service.handle(submitVerb("montage:0.2", {2}, /*events=*/false));
  ASSERT_TRUE(with.at("ok").asBool());
  ASSERT_TRUE(without.at("ok").asBool());

  const json::JsonValue withReply =
      service.handle(jobVerb("result", with.at("job").asNumber()));
  const json::JsonValue withoutReply =
      service.handle(jobVerb("result", without.at("job").asNumber()));
  ASSERT_TRUE(withReply.at("ok").asBool());
  // Only the events:true request carries a stream, and it is non-empty
  // JSONL (every line is an event object).
  ASSERT_TRUE(withReply.has("events_jsonl"));
  const std::string& jsonl = withReply.at("events_jsonl").asString();
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.front(), '{');
  EXPECT_FALSE(withoutReply.has("events_jsonl"));
}

TEST(SimulationService, RefusesNonIntegralAndOutOfRangeNumbers) {
  SimulationService service({.workers = 1});
  const json::JsonValue submitted =
      service.handle(submitVerb("montage:0.2", {1}));
  ASSERT_TRUE(submitted.at("ok").asBool());
  ASSERT_EQ(submitted.at("job").asNumber(), 1.0);  // so 1.9 would find it

  // Job ids: 1.9 must not address job 1, nor 1e300 job 0.
  for (const char* verb : {"status", "cancel", "result"})
    for (double job : {1.9, 1e300, 0.5, 0.0, -1.0}) {
      SCOPED_TRACE(std::string(verb) + " " + std::to_string(job));
      const json::JsonValue reply = service.handle(jobVerb(verb, job));
      EXPECT_FALSE(reply.at("ok").asBool());
      EXPECT_NE(reply.at("error").asString().find("'job'"),
                std::string::npos)
          << reply.at("error").asString();
    }

  // Scenario counts and seeds: refused at submit, naming the field.
  struct Case {
    const char* field;
    double value;
    bool perScenario;
  };
  for (const Case& c : {Case{"processors", 2.5, true},
                        Case{"processors", 1e10, true},
                        Case{"fault_seed", 0.25, true},
                        Case{"base_seed", 1e300, false},
                        Case{"bandwidth_mbps", 0.0, true},
                        Case{"bandwidth_mbps", -5.0, true},
                        Case{"mtbf_seconds", -5.0, true}}) {
    SCOPED_TRACE(std::string(c.field) + " " + std::to_string(c.value));
    json::JsonValue verb = submitVerb("montage:0.2", {1});
    json::JsonObject request = verb.at("request").asObject();
    if (c.perScenario) {
      json::JsonObject scenario = request["scenarios"].asArray()[0].asObject();
      scenario[c.field] = c.value;
      request["scenarios"] = json::JsonArray{json::JsonValue(scenario)};
    } else {
      request[c.field] = c.value;
    }
    json::JsonObject wrapped;
    wrapped["verb"] = std::string("submit");
    wrapped["request"] = std::move(request);
    const json::JsonValue reply =
        service.handle(json::JsonValue(std::move(wrapped)));
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_NE(reply.at("error").asString().find(std::string("'") + c.field +
                                                 "'"),
              std::string::npos)
        << reply.at("error").asString();
  }
  EXPECT_EQ(service.queue().liveJobs(), 1u);  // only the first submit
  EXPECT_EQ(service.handle(jobVerb("result", 1)).at("state").asString(),
            "completed");
}

TEST(SimulationService, RefusesMalformedWorkflowSpecs) {
  SimulationService service({.workers = 1});
  for (const char* spec : {"montage:4abc", "montage: 2", "montage:0x2",
                           "montage:", "montage:inf"}) {
    SCOPED_TRACE(spec);
    const json::JsonValue reply = service.handle(submitVerb(spec, {1}));
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_NE(reply.at("error").asString().find(
                  std::string("bad workflow spec '") + spec + "'"),
              std::string::npos)
        << reply.at("error").asString();
  }
  EXPECT_EQ(service.queue().liveJobs(), 0u);
  EXPECT_EQ(service.specMemo().stats().builds, 0u);
}

TEST(SimulationService, RefusesUnknownEnvelopeKeysOnEveryVerb) {
  SimulationService service({.workers = 1});
  struct Case {
    const char* verb;
    const char* known;
  };
  for (const Case& c : {Case{"submit", "verb, id, request"},
                        Case{"status", "verb, id, job"},
                        Case{"result", "verb, id, job"},
                        Case{"cancel", "verb, id, job"},
                        Case{"metrics", "verb, id"}, Case{"ping", "verb, id"},
                        Case{"shutdown", "verb, id"}}) {
    SCOPED_TRACE(c.verb);
    json::JsonObject o;
    o["verb"] = std::string(c.verb);
    o["id"] = 3;
    o["jbo"] = 1;
    const json::JsonValue reply = service.handle(json::JsonValue(o));
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), std::string(c.verb) +
                                                ": unknown key 'jbo' (known "
                                                "keys: " +
                                                c.known + ")");
    EXPECT_EQ(reply.at("id").asNumber(), 3.0);
    EXPECT_FALSE(reply.has("shutting_down"));
  }

  // The stray keys of a submit's payload are refused the same way, before
  // anything is built or queued.
  const json::JsonValue reply = service.handle(json::parseJson(
      R"({"verb":"submit","request":{"workflow":"montage:1","scenarios":)"
      R"([{"procs":8,"mtbf":60,"retries":0}],"evnts":true}})"));
  EXPECT_FALSE(reply.at("ok").asBool());
  EXPECT_EQ(reply.at("error").asString(),
            "serve: request: unknown key 'evnts' (known keys: workflow, "
            "scenarios, base_seed, label, events)");
  EXPECT_EQ(service.queue().stats().submitted, 0u);
  EXPECT_EQ(service.specMemo().stats().builds, 0u);
}

/// Submit `workflow` against `procs` and wait for the reply to `result`.
json::JsonValue submitAndWait(SimulationService& service,
                              const std::string& workflow,
                              const std::vector<int>& procs) {
  const json::JsonValue submitted =
      service.handle(submitVerb(workflow, procs));
  EXPECT_TRUE(submitted.at("ok").asBool()) << workflow;
  return service.handle(jobVerb("result", submitted.at("job").asNumber()));
}

TEST(SimulationService, RepeatedSpecsReuseOneWorkflow) {
  SimulationService service({.workers = 2});
  const json::JsonValue first = submitAndWait(service, "montage:4", {8});
  const json::JsonValue again = submitAndWait(service, "montage:4.0", {8});
  EXPECT_EQ(service.specMemo().stats().builds, 1u);
  EXPECT_EQ(service.specMemo().stats().hits, 1u);
  EXPECT_EQ(again.at("cached_scenarios").asNumber(), 1.0);
  EXPECT_EQ(json::dumpJson(scrubProvenance(again.at("results"))),
            json::dumpJson(scrubProvenance(first.at("results"))));

  submitAndWait(service, "sipht", {2});
  submitAndWait(service, "sipht", {4});
  EXPECT_EQ(service.specMemo().stats().builds, 2u);
  EXPECT_EQ(service.specMemo().stats().entries, 2u);

  // A DAX file may change between requests: it is read every time and
  // never kept.
  const std::string path = ::testing::TempDir() + "/spec_memo_test.dax";
  dag::writeDaxFile(loadWorkflowSpec("montage:0.2"), path);
  for (int p : {1, 2})
    EXPECT_EQ(submitAndWait(service, path, {p}).at("state").asString(),
              "completed");
  EXPECT_EQ(service.specMemo().stats().builds, 4u);
  EXPECT_EQ(service.specMemo().stats().entries, 2u);
}

TEST(SimulationService, SpecMemoHoldsItsTaskBudget) {
  // Small mosaics under a budget cut to match: reaching the service's 2^16
  // tasks takes mosaics too slow to build under the sanitizers.
  const std::vector<std::string> specs = {"montage:0.2", "montage:0.3",
                                          "montage:0.4"};
  std::size_t total = 0;
  for (const std::string& spec : specs)
    total += loadWorkflowSpec(spec).taskCount();
  const std::size_t budget = total - 1;  // room for the last two only

  WorkflowSpecMemo memo(budget);
  std::vector<std::shared_ptr<const dag::Workflow>> held;
  for (const std::string& spec : specs) {
    held.push_back(memo.load(spec));
    EXPECT_LE(memo.stats().tasks, budget) << spec;
  }
  EXPECT_EQ(memo.stats().builds, 3u);
  EXPECT_EQ(memo.stats().entries, 2u);
  // The newest stays resident; the oldest went first.
  EXPECT_EQ(memo.load(specs[2]), held[2]);
  EXPECT_EQ(memo.stats().builds, 3u);
  const std::shared_ptr<const dag::Workflow> rebuilt = memo.load(specs[0]);
  EXPECT_EQ(memo.stats().builds, 4u);
  EXPECT_NE(rebuilt, held[0]);
  // Eviction drops the memo's reference only: a holder keeps its workflow.
  EXPECT_EQ(held[0]->fingerprint(), rebuilt->fingerprint());
  EXPECT_LE(memo.stats().tasks, budget);

  // A workflow larger than the whole budget is built for each load and
  // never retained.
  WorkflowSpecMemo tiny(held[0]->taskCount() - 1);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(tiny.load(specs[0])->taskCount(), held[0]->taskCount());
  EXPECT_EQ(tiny.stats().builds, 2u);
  EXPECT_EQ(tiny.stats().entries, 0u);
  EXPECT_EQ(tiny.stats().tasks, 0u);
}

TEST(SimulationService, ConcurrentSubmitsOfANewSpecShareOneEntry) {
  SimulationService service({.workers = 4, .maxQueuedJobs = 32});
  const std::vector<int> procs = {1, 2};
  constexpr int kClients = 8;
  std::vector<std::string> rendered(kClients);
  std::latch start(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      start.arrive_and_wait();
      const json::JsonValue reply =
          submitAndWait(service, "montage:0.3", procs);
      if (reply.at("ok").asBool() &&
          reply.at("state").asString() == "completed")
        rendered[i] = json::dumpJson(scrubProvenance(reply.at("results")));
    });
  for (std::thread& t : clients) t.join();

  const SpecMemoStats stats = service.specMemo().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.builds, 1u);
  EXPECT_EQ(stats.builds + stats.hits, static_cast<std::size_t>(kClients));
  const std::string golden =
      batchGolden("montage:0.3", procs, service.options().pricing);
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(rendered[i], golden) << i;
}

TEST(SimulationService, PlainRequestsCacheResultsOnly) {
  SimulationService service({.workers = 2});
  const std::vector<int> procs = {1, 2, 4, 8};
  const json::JsonValue plain =
      service.handle(submitVerb("montage:0.2", procs));
  ASSERT_TRUE(plain.at("ok").asBool());
  const json::JsonValue plainReply =
      service.handle(jobVerb("result", plain.at("job").asNumber()));
  ASSERT_EQ(plainReply.at("state").asString(), "completed");
  EXPECT_EQ(plainReply.at("cached_scenarios").asNumber(), 0.0);
  EXPECT_FALSE(plainReply.has("events_jsonl"));

  // The service cache holds exactly what an observer-less queue's cache
  // holds for the same specs: results, no event streams.
  const SubmitRequest parsed = parseSubmitRequest(
      submitVerb("montage:0.2", procs).at("request"));
  runner::ScenarioMemoCache reference(service.options().cache);
  runner::JobQueue({.workers = 0, .cache = &reference}).run(parsed.scenarios);
  EXPECT_EQ(service.cache().stats().bytes, reference.stats().bytes);
  EXPECT_EQ(service.cache().stats().entries, procs.size());

  // events:true wants every kind, so those entries cannot serve it: the
  // ladder simulates again and returns its full merged stream.
  const json::JsonValue withEvents =
      service.handle(submitVerb("montage:0.2", procs, /*events=*/true));
  ASSERT_TRUE(withEvents.at("ok").asBool());
  const json::JsonValue eventsReply =
      service.handle(jobVerb("result", withEvents.at("job").asNumber()));
  ASSERT_EQ(eventsReply.at("state").asString(), "completed");
  EXPECT_EQ(eventsReply.at("cached_scenarios").asNumber(), 0.0);
  EXPECT_EQ(json::dumpJson(eventsReply.at("results")),
            json::dumpJson(plainReply.at("results")));

  std::ostringstream expected;
  obs::JsonlSink jsonl(expected);
  for (const runner::ScenarioResult& r :
       runner::runOnQueue(nullptr, parsed.scenarios, {.keepEvents = true}))
    for (const obs::Event& e : r.events) jsonl.onEvent(e);
  const std::string& stream = eventsReply.at("events_jsonl").asString();
  const std::size_t lastLine = stream.rfind('\n', stream.size() - 2);
  ASSERT_NE(lastLine, std::string::npos);
  EXPECT_EQ(stream.substr(0, lastLine + 1), expected.str());
  EXPECT_NE(stream.find("\"type\":\"scenario_cache_stats\"", lastLine),
            std::string::npos)
      << stream.substr(lastLine);

  const std::string text = service.metricsText();
  EXPECT_NE(text.find("mcsim_cache_hits 0"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_misses 8"), std::string::npos) << text;
  // The service exposes its own series only, never the simulated cloud's.
  EXPECT_EQ(text.find("mcsim_tasks_finished_total"), std::string::npos)
      << text;
}

TEST(SimulationService, StatusAndCancelVerbs) {
  SimulationService service({.workers = 1, .maxQueuedJobs = 8});
  const json::JsonValue a = service.handle(submitVerb("montage:0.2", {1, 2}));
  const json::JsonValue b = service.handle(submitVerb("montage:0.2", {1, 2}));
  ASSERT_TRUE(a.at("ok").asBool());
  ASSERT_TRUE(b.at("ok").asBool());

  const json::JsonValue status =
      service.handle(jobVerb("status", b.at("job").asNumber()));
  ASSERT_TRUE(status.at("ok").asBool());
  EXPECT_EQ(status.at("total_scenarios").asNumber(), 2.0);

  service.handle(jobVerb("cancel", b.at("job").asNumber()));
  const json::JsonValue bReply =
      service.handle(jobVerb("result", b.at("job").asNumber()));
  ASSERT_TRUE(bReply.at("ok").asBool());
  // b was either cancelled in time or had already completed; both are
  // legitimate, but nothing in between.
  const std::string& state = bReply.at("state").asString();
  EXPECT_TRUE(state == "cancelled" || state == "completed") << state;

  EXPECT_EQ(service
                .handle(jobVerb("result", a.at("job").asNumber()))
                .at("state")
                .asString(),
            "completed");

  // result on a retired id is an error reply, not a crash.
  EXPECT_FALSE(service.handle(jobVerb("result", a.at("job").asNumber()))
                   .at("ok")
                   .asBool());
  EXPECT_FALSE(service.handle(jobVerb("status", 0)).at("ok").asBool());
}

TEST(SimulationService, MetricsExposeCacheAndJobInstruments) {
  SimulationService service(
      {.workers = 2, .cache = runner::MemoCacheOptions{4, 0}});
  // Two identical submits: the second is served from the bounded cache.
  for (int i = 0; i < 2; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", {1, 2}));
    ASSERT_TRUE(submitted.at("ok").asBool());
    service.handle(jobVerb("result", submitted.at("job").asNumber()));
  }
  const std::string text = service.metricsText();
  EXPECT_NE(text.find("mcsim_cache_hits 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_misses 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_entries 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_evictions"), std::string::npos);
  EXPECT_NE(text.find("mcsim_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("mcsim_jobs_submitted_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_jobs_completed_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_job_scenarios_total 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_jobs_queued 0"), std::string::npos) << text;
  // 5 cache and 6 job series, one sample each.
  std::istringstream lines(text);
  std::size_t samples = 0;
  for (std::string line; std::getline(lines, line);)
    if (!line.empty() && line[0] != '#') ++samples;
  EXPECT_EQ(samples, 11u) << text;
}

TEST(SimulationService, MetricsScrapeRacesFinishingJobs) {
  // A scrape reads the cache's and the queue's counters while jobs finish
  // on the workers; it must neither hang nor miss a finished job.
  SimulationService service({.workers = 2});
  constexpr int kJobs = 40;
  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    do {
      service.metricsText();
      ++scrapes;
      // Leave the queue's mutex free most of the time so jobs can finish;
      // the race needs only the overlap.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    } while (!done.load());
  });
  for (int i = 0; i < kJobs; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", {1 + i % 4}));
    if (!submitted.at("ok").asBool()) {
      ADD_FAILURE() << "job " << i << " refused";
      break;  // still stop the scraper below
    }
    const json::JsonValue reply =
        service.handle(jobVerb("result", submitted.at("job").asNumber()));
    EXPECT_EQ(reply.at("state").asString(), "completed") << "job " << i;
  }
  done.store(true);
  scraper.join();
  EXPECT_GT(scrapes, 0u);
  const std::string text = service.metricsText();
  EXPECT_NE(text.find("mcsim_jobs_completed_total " + std::to_string(kJobs)),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace mcsim::serve
