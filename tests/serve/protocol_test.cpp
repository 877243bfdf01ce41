#include "mcsim/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/runner/jobs.hpp"

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
      {"", R"(, "base_seed": 0.5)", "base_seed"},
      {"", R"(, "base_seed": -3)", "base_seed"},
      {"", R"(, "base_seed": 1e20)", "base_seed"},
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

  // The edges of each range are accepted exactly.
  const SubmitRequest edges = parseSubmitRequest(json::parseJson(R"({
    "workflow": "montage:0.2",
    "scenarios": [{"processors": 2147483647, "fault_seed": 0},
                  {"processors": 1, "fault_seed": 9007199254740992}],
    "base_seed": 18446744073709549568
  })"));
  EXPECT_EQ(edges.scenarios[0].config.processors, 2147483647);
  EXPECT_EQ(edges.scenarios[0].config.faults.seed, 0u);
  EXPECT_EQ(edges.scenarios[1].config.processors, 1);
  EXPECT_EQ(edges.scenarios[1].config.faults.seed, 9007199254740992u);
  EXPECT_EQ(edges.baseSeed, 18446744073709549568u);

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
  const cloud::Pricing pricing = cloud::Pricing::amazon2008();

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
