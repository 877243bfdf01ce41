#include "mcsim/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
