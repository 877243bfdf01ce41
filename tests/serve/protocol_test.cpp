#include "mcsim/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::serve {
namespace {

TEST(LoadWorkflowSpec, SharedSpecSyntax) {
  EXPECT_GT(loadWorkflowSpec("montage:0.2").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("cybershake").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("epigenomics").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("inspiral").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("sipht").taskCount(), 0u);
  EXPECT_ANY_THROW(loadWorkflowSpec("/no/such/file.dax"));
}

TEST(LoadWorkflowSpec, MontageDegreesParseStrictly) {
  // The whole suffix must be one finite decimal number > 0; anything else
  // is refused by name instead of building some other mosaic.
  for (const char* spec :
       {"montage:4abc", "montage: 2", "montage:0x2", "montage:", "montage:inf",
        "montage:nan", "montage:-1", "montage:0", "montage:+2", "montage:2 ",
        "montage:1e999", "montage:1,5"}) {
    SCOPED_TRACE(spec);
    try {
      loadWorkflowSpec(spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("serve: bad workflow spec '") + spec +
                    "' (want montage:<degrees>)");
    }
  }
  // Spellings of one number build one mosaic.
  const std::size_t tasks = loadWorkflowSpec("montage:0.2").taskCount();
  for (const char* spec : {"montage:0.20", "montage:2e-1", "montage:.2"})
    EXPECT_EQ(loadWorkflowSpec(spec).taskCount(), tasks) << spec;
}

TEST(ParseSubmitRequest, FullRequest) {
  const json::JsonValue request = json::parseJson(R"({
    "workflow": "montage:0.2",
    "scenarios": [
      {"mode": "regular", "processors": 4, "bandwidth_mbps": 20,
       "label": "a"},
      {"mode": "cleanup", "processors": 8,
       "mtbf_seconds": 3600, "fault_seed": 7}
    ],
    "base_seed": 42,
    "label": "demo",
    "events": true
  })");

  const SubmitRequest sub = parseSubmitRequest(request);
  ASSERT_EQ(sub.workflows.size(), 1u);
  ASSERT_EQ(sub.scenarios.size(), 2u);
  EXPECT_EQ(sub.scenarios[0].workflow, sub.workflows[0].get());
  EXPECT_EQ(sub.scenarios[0].config.mode, engine::DataMode::Regular);
  EXPECT_EQ(sub.scenarios[0].config.processors, 4);
  EXPECT_EQ(sub.scenarios[0].config.linkBandwidthBytesPerSec,
            20.0 * 1e6 / 8.0);
  EXPECT_EQ(sub.scenarios[0].label, "a");
  EXPECT_EQ(sub.scenarios[1].config.mode, engine::DataMode::DynamicCleanup);
  EXPECT_EQ(sub.scenarios[1].config.faults.processor.mtbfSeconds, 3600.0);
  EXPECT_EQ(sub.scenarios[1].config.faults.seed, 7u);
  EXPECT_EQ(sub.baseSeed, 42u);
  EXPECT_EQ(sub.label, "demo");
  EXPECT_TRUE(sub.events);
}

TEST(ParseSubmitRequest, RejectsMalformedPayloads) {
  EXPECT_THROW(parseSubmitRequest(json::parseJson("[]")), std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson("{}")), std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2"})")),
               std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2","scenarios":[]})")),
               std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2","scenarios":[1]})")),
               std::runtime_error);
  EXPECT_THROW(
      parseSubmitRequest(json::parseJson(
          R"({"workflow":"montage:0.2","scenarios":[{"mode":"bogus"}]})")),
      std::runtime_error);
  EXPECT_THROW(
      parseSubmitRequest(json::parseJson(
          R"({"workflow":"montage:0.2","scenarios":[{"processors":0}]})")),
      std::runtime_error);
}

TEST(ParseSubmitRequest, RefusesNonIntegralAndOutOfRangeNumbers) {
  // Each case replaces one integer field; the refusal must name the field
  // instead of casting (2.5 -> 2, 1e10 -> undefined, 1e300 -> 0).
  struct Case {
    const char* scenario;  ///< Scenario object members.
    const char* request;   ///< Extra request members.
    const char* field;
  };
  const Case cases[] = {
      {R"("processors": 2.5)", "", "processors"},
      {R"("processors": 1e10)", "", "processors"},
      {R"("processors": 2147483648)", "", "processors"},
      {R"("processors": 0)", "", "processors"},
      {R"("processors": -4)", "", "processors"},
      {R"("processors": "8")", "", "processors"},
      {R"("fault_seed": 1.5)", "", "fault_seed"},
      {R"("fault_seed": -1)", "", "fault_seed"},
      {R"("fault_seed": 1e300)", "", "fault_seed"},
      {R"("fault_seed": 18446744073709551616)", "", "fault_seed"},
      {R"("fault_seed": 9007199254740994)", "", "fault_seed"},
      {"", R"(, "base_seed": 0.5)", "base_seed"},
      {"", R"(, "base_seed": -3)", "base_seed"},
      {"", R"(, "base_seed": 1e20)", "base_seed"},
      {"", R"(, "base_seed": 9007199254740994)", "base_seed"},
      {R"("bandwidth_mbps": 0)", "", "bandwidth_mbps"},
      {R"("bandwidth_mbps": -5)", "", "bandwidth_mbps"},
      {R"("bandwidth_mbps": "10")", "", "bandwidth_mbps"},
      {R"("mtbf_seconds": -5)", "", "mtbf_seconds"},
      {R"("mtbf_seconds": -1e-9)", "", "mtbf_seconds"},
      {R"("mtbf_seconds": "3600")", "", "mtbf_seconds"},
  };
  for (const Case& c : cases) {
    const std::string text = std::string(R"({"workflow": "montage:0.2", )") +
                             R"("scenarios": [{)" + c.scenario + "}]" +
                             c.request + "}";
    SCOPED_TRACE(text);
    try {
      parseSubmitRequest(json::parseJson(text));
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + c.field + "'"),
                std::string::npos)
          << e.what();
    }
  }

  // The edges of each range are accepted exactly.  A seed ends at 2^53,
  // the largest integer a JSON number holds.
  const SubmitRequest edges = parseSubmitRequest(json::parseJson(R"({
    "workflow": "montage:0.2",
    "scenarios": [{"processors": 2147483647, "fault_seed": 0},
                  {"processors": 1, "fault_seed": 9007199254740992}],
    "base_seed": 9007199254740992
  })"));
  EXPECT_EQ(edges.scenarios[0].config.processors, 2147483647);
  EXPECT_EQ(edges.scenarios[0].config.faults.seed, 0u);
  EXPECT_EQ(edges.scenarios[1].config.processors, 1);
  EXPECT_EQ(edges.scenarios[1].config.faults.seed, 9007199254740992u);
  EXPECT_EQ(edges.baseSeed, 9007199254740992u);

  // The smallest positive bandwidth is a link; an MTBF of 0 turns the
  // crash model off.
  const SubmitRequest reals = parseSubmitRequest(json::parseJson(R"({
    "workflow": "montage:0.2",
    "scenarios": [{"bandwidth_mbps": 1e-9, "mtbf_seconds": 0}]
  })"));
  EXPECT_EQ(reals.scenarios[0].config.linkBandwidthBytesPerSec,
            1e-9 * 1e6 / 8.0);
  EXPECT_EQ(reals.scenarios[0].config.faults.processor.mtbfSeconds, 0.0);
}

/// The message of the std::runtime_error `parse` throws ("accepted" if none).
template <class Parse>
std::string refusal(Parse parse) {
  try {
    parse();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(ParseSubmitRequest, RefusesUnknownKeysByName) {
  // The request and each scenario take exactly the keys the parser reads;
  // a key it would ignore is refused, naming the key and its object.
  WorkflowSpecMemo specs;
  const auto error = [&](const char* text) {
    return refusal([&] { parseSubmitRequest(json::parseJson(text), &specs); });
  };
  EXPECT_EQ(error(R"({"workflow": "montage:0.2", "scenarios": [{}],
                     "evnts": true})"),
            "serve: request: unknown key 'evnts' (known keys: workflow, "
            "scenarios, base_seed, label, events)");
  EXPECT_EQ(error(R"({"workflow": "montage:0.2",
                     "scenarios": [{"processors": 8}, {"procs": 8}]})"),
            "serve: request.scenarios[1]: unknown key 'procs' (known keys: "
            "mode, processors, bandwidth_mbps, mtbf_seconds, fault_seed, "
            "label)");
  EXPECT_EQ(error(R"({"workflow": "montage:0.2",
                     "scenarios": [{"processors": 8, "retries": 0}]})"),
            "serve: request.scenarios[0]: unknown key 'retries' (known keys: "
            "mode, processors, bandwidth_mbps, mtbf_seconds, fault_seed, "
            "label)");
  // A refused request builds no workflow.
  EXPECT_EQ(specs.stats().builds, 0u);
}

TEST(ParseSubmitRequest, RefusesDuplicateKeys) {
  // The second key is refused by name; first-wins would run
  // {"processors":8,"processors":1} on 8 processors.
  EXPECT_EQ(refusal([] {
              json::parseJson(R"({"workflow":"montage:0.2","scenarios":)"
                              R"([{"processors":8,"processors":1}]})");
            }),
            "json: duplicate key 'processors' at offset 55");
  EXPECT_EQ(refusal([] {
              json::parseJson(R"({"workflow":"montage:0.2","scenarios":)"
                              R"([{}],"workflow":"montage:4"})");
            }),
            "json: duplicate key 'workflow' at offset 43");
}

TEST(ParseSubmitRequest, RefusesStringAndBoolKeysOfAnotherType) {
  // Refused by name before any accessor can throw std::bad_variant_access.
  struct Key {
    const char* scenario;  ///< Scenario member, "" when the key is top-level.
    const char* request;   ///< Request member, "" when in the scenario.
    const char* error;
  };
  const Key keys[] = {
      {"", "workflow", "serve: submit needs a 'workflow' spec string"},
      {"mode", "", "serve: 'mode' must be a string"},
      {"label", "", "serve: 'label' must be a string"},
      {"", "label", "serve: 'label' must be a string"},
      {"", "events", "serve: 'events' must be true or false"},
  };
  WorkflowSpecMemo specs;
  for (const Key& key : keys) {
    for (const char* value : {"3", "[]", "{}", "null"}) {
      json::JsonObject scenario;
      json::JsonObject request;
      request["workflow"] = std::string("montage:0.2");
      const json::JsonValue bad = json::parseJson(value);
      if (*key.scenario != '\0') scenario[key.scenario] = bad;
      if (*key.request != '\0') request[key.request] = bad;
      request["scenarios"] = json::JsonArray{json::JsonValue(scenario)};
      SCOPED_TRACE(json::dumpJson(json::JsonValue(request)));
      EXPECT_EQ(refusal([&] {
                  parseSubmitRequest(json::JsonValue(request), &specs);
                }),
                key.error);
    }
  }
  EXPECT_EQ(specs.stats().builds, 0u);
}

TEST(SubmitRequestJson, ParsingTheEncodingGivesBackEveryField) {
  // Random requests whose bandwidths are read in Mbps, as `mcsim request`
  // reads them: bytes/s -> Mbps -> bytes/s is exact for those, though not
  // for arbitrary bytes/s.  Seeds stay below 2^53, the integers a JSON
  // number holds exactly.
  constexpr engine::DataMode kModes[] = {engine::DataMode::RemoteIO,
                                         engine::DataMode::Regular,
                                         engine::DataMode::DynamicCleanup};
  const auto seed = [](Rng& rng) {
    return static_cast<std::uint64_t>(rng.uniformInt(0, std::int64_t{1} << 53));
  };
  WorkflowSpecMemo specs;
  Rng rng(28);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    const std::string workflow = trial % 2 == 0 ? "montage:0.2" : "sipht";
    SubmitRequest x;
    x.workflows.push_back(specs.load(workflow));
    const auto count = rng.uniformInt(1, 8);
    for (std::int64_t i = 0; i < count; ++i) {
      runner::ScenarioSpec spec;
      spec.workflow = x.workflows[0].get();
      spec.config.mode = kModes[rng.uniformInt(0, 2)];
      spec.config.processors = static_cast<int>(rng.uniformInt(1, 1 << 20));
      const double mbps = std::pow(10.0, rng.uniformReal(-3.0, 5.0));
      spec.config.linkBandwidthBytesPerSec = mbps * 1e6 / 8.0;
      spec.config.faults.processor.mtbfSeconds =
          rng.chance(0.5) ? 0.0 : rng.uniformReal(0.0, 1e6);
      spec.config.faults.seed = seed(rng);
      if (rng.chance(0.5)) spec.label = "s" + std::to_string(i) + "\t\"";
      x.scenarios.push_back(spec);
    }
    x.baseSeed = rng.chance(0.5) ? 0 : seed(rng);
    if (rng.chance(0.5)) x.label = "batch " + std::to_string(trial);
    x.events = rng.chance(0.5);

    const json::JsonValue encoded = submitRequestToJson(workflow, x);
    const SubmitRequest y = parseSubmitRequest(encoded, &specs);
    ASSERT_EQ(y.workflows, x.workflows);
    ASSERT_EQ(y.scenarios.size(), x.scenarios.size());
    for (std::size_t i = 0; i < x.scenarios.size(); ++i) {
      const runner::ScenarioSpec& a = x.scenarios[i];
      const runner::ScenarioSpec& b = y.scenarios[i];
      EXPECT_EQ(b.workflow, a.workflow);
      EXPECT_EQ(b.config.mode, a.config.mode);
      EXPECT_EQ(b.config.processors, a.config.processors);
      EXPECT_EQ(b.config.linkBandwidthBytesPerSec,
                a.config.linkBandwidthBytesPerSec);
      EXPECT_EQ(b.config.faults.processor.mtbfSeconds,
                a.config.faults.processor.mtbfSeconds);
      EXPECT_EQ(b.config.faults.seed, a.config.faults.seed);
      EXPECT_EQ(b.label, a.label);
    }
    EXPECT_EQ(y.baseSeed, x.baseSeed);
    EXPECT_EQ(y.label, x.label);
    EXPECT_EQ(y.events, x.events);

    // The encoding holds every key the parser reads and no other.
    const auto keys = [](const json::JsonValue& object) {
      std::vector<std::string> out;
      for (const auto& [key, value] : object.asObject()) out.push_back(key);
      return out;
    };
    EXPECT_EQ(keys(encoded),
              (std::vector<std::string>{"base_seed", "events", "label",
                                        "scenarios", "workflow"}));
    EXPECT_EQ(keys(encoded.at("scenarios").asArray()[0]),
              (std::vector<std::string>{"bandwidth_mbps", "fault_seed",
                                        "label", "mode", "mtbf_seconds",
                                        "processors"}));
  }
}

TEST(SubmitRequestJson, SeedsUpToTwoToTheFiftyThirdSurviveTheText) {
  // `mcsim request` sends the encoding as text: seeds of 10^12 and more
  // come back through dumpJson -> parseJson -> parseSubmitRequest intact.
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  WorkflowSpecMemo specs;
  for (const std::uint64_t seed : {std::uint64_t{1234567890123}, kTwo53}) {
    SCOPED_TRACE(seed);
    SubmitRequest x;
    x.workflows.push_back(specs.load("montage:0.2"));
    runner::ScenarioSpec spec;
    spec.workflow = x.workflows[0].get();
    spec.config.mode = engine::DataMode::DynamicCleanup;
    spec.config.processors = 8;
    spec.config.linkBandwidthBytesPerSec = 100.0 * 1e6 / 8.0;
    spec.config.faults.processor.mtbfSeconds = 60.0;
    spec.config.faults.seed = seed;
    spec.label = "big";
    x.scenarios.push_back(spec);
    x.baseSeed = seed - 1;
    x.label = "seeds";
    x.events = true;

    const std::string text =
        json::dumpJson(submitRequestToJson("montage:0.2", x));
    EXPECT_NE(text.find("\"fault_seed\":" + std::to_string(seed)),
              std::string::npos)
        << text;
    const SubmitRequest y = parseSubmitRequest(json::parseJson(text), &specs);
    ASSERT_EQ(y.workflows, x.workflows);
    ASSERT_EQ(y.scenarios.size(), 1u);
    const runner::ScenarioSpec& b = y.scenarios[0];
    EXPECT_EQ(b.workflow, spec.workflow);
    EXPECT_EQ(b.config.mode, spec.config.mode);
    EXPECT_EQ(b.config.processors, spec.config.processors);
    EXPECT_EQ(b.config.linkBandwidthBytesPerSec,
              spec.config.linkBandwidthBytesPerSec);
    EXPECT_EQ(b.config.faults.processor.mtbfSeconds,
              spec.config.faults.processor.mtbfSeconds);
    EXPECT_EQ(b.config.faults.seed, seed);
    EXPECT_EQ(b.label, spec.label);
    EXPECT_EQ(y.baseSeed, seed - 1);
    EXPECT_EQ(y.label, x.label);
    EXPECT_EQ(y.events, x.events);
  }

  // One more than 2^53 would arrive rounded, so the encoder refuses it.
  SubmitRequest big;
  big.workflows.push_back(specs.load("montage:0.2"));
  big.scenarios.resize(1);
  big.scenarios[0].workflow = big.workflows[0].get();
  big.scenarios[0].config.faults.seed = kTwo53 + 1;
  EXPECT_EQ(refusal([&] { submitRequestToJson("montage:0.2", big); }),
            "serve: 'fault_seed' must be an integer in [0, "
            "9007199254740992]");
  big.scenarios[0].config.faults.seed = 0;
  big.baseSeed = kTwo53 + 1;
  EXPECT_EQ(refusal([&] { submitRequestToJson("montage:0.2", big); }),
            "serve: 'base_seed' must be an integer in [0, "
            "9007199254740992]");
}

TEST(ParseSubmitRequest, LoadsThroughTheSpecMemoWhenGiven) {
  const json::JsonValue request = json::parseJson(
      R"({"workflow": "montage:0.2", "scenarios": [{"processors": 2}]})");
  WorkflowSpecMemo specs;
  const SubmitRequest first = parseSubmitRequest(request, &specs);
  const SubmitRequest second = parseSubmitRequest(request, &specs);
  EXPECT_EQ(first.workflows[0], second.workflows[0]);
  EXPECT_EQ(second.scenarios[0].workflow, first.workflows[0].get());
  EXPECT_EQ(specs.stats().builds, 1u);
  EXPECT_EQ(specs.stats().hits, 1u);
  // Without a memo every call builds its own.
  EXPECT_NE(parseSubmitRequest(request).workflows[0], first.workflows[0]);
}

TEST(ScenarioResultJson, MatchesBatchRunByteForByte) {
  const dag::Workflow wf = loadWorkflowSpec("montage:0.2");
  runner::ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.processors = 4;
  spec.label = "golden";
  const auto results = runner::runOnQueue(nullptr, {spec});
  const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");

  const json::JsonValue one = scenarioResultToJson(results[0], pricing);
  EXPECT_EQ(one.at("index").asNumber(), 0.0);
  EXPECT_EQ(one.at("label").asString(), "golden");
  EXPECT_FALSE(one.at("from_cache").asBool());
  EXPECT_EQ(one.at("mode").asString(), "regular");
  EXPECT_EQ(one.at("processors").asNumber(), 4.0);
  EXPECT_EQ(one.at("makespan_seconds").asNumber(),
            results[0].result.makespanSeconds);
  EXPECT_TRUE(one.at("completed").asBool());
  EXPECT_GT(one.at("cost").at("total_usd").asNumber(), 0.0);

  // The serializer is pure: two renderings of the same result are
  // byte-identical — the server-vs-batch golden comparison relies on it.
  EXPECT_EQ(json::dumpJson(scenarioResultsToJson(results, pricing)),
            json::dumpJson(scenarioResultsToJson(results, pricing)));
}

}  // namespace
}  // namespace mcsim::serve
