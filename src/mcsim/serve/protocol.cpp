#include "mcsim/serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::serve {
namespace {

engine::DataMode parseDataMode(const std::string& name) {
  if (name == "remote-io" || name == "remote_io")
    return engine::DataMode::RemoteIO;
  if (name == "regular") return engine::DataMode::Regular;
  if (name == "cleanup" || name == "dynamic-cleanup" ||
      name == "dynamic_cleanup")
    return engine::DataMode::DynamicCleanup;
  throw std::runtime_error("serve: unknown mode '" + name +
                           "' (want remote-io|regular|cleanup)");
}

/// The integer held by JSON number field `field`.  Fractions and values
/// outside [lo, max of Int] are refused before any cast — casting them
/// would truncate silently or be undefined.
template <class Int>
Int integerField(const json::JsonValue& v, const char* field, Int lo) {
  constexpr Int hi = std::numeric_limits<Int>::max();
  // hi + 1 is a power of two (2^31, 2^64), so it is exact as a double.
  const double end = static_cast<double>(hi) + 1.0;
  const double d = v.isNumber() ? v.asNumber() : std::nan("");
  if (!(d >= static_cast<double>(lo) && d < end) || std::trunc(d) != d)
    throw std::runtime_error(std::string("serve: '") + field +
                             "' must be an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  return static_cast<Int>(d);
}

}  // namespace

dag::Workflow loadWorkflowSpec(const std::string& spec) {
  if (spec.rfind("montage:", 0) == 0)
    return montage::buildMontageWorkflow(std::stod(spec.substr(8)));
  if (spec == "cybershake") return workflows::buildCyberShake();
  if (spec == "epigenomics") return workflows::buildEpigenomics();
  if (spec == "inspiral") return workflows::buildInspiral();
  if (spec == "sipht") return workflows::buildSipht();
  return dag::readDaxFile(spec);
}

SubmitRequest parseSubmitRequest(const json::JsonValue& request) {
  if (!request.isObject())
    throw std::runtime_error("serve: submit 'request' must be an object");
  if (!request.has("workflow") || !request.at("workflow").isString())
    throw std::runtime_error("serve: submit needs a 'workflow' spec string");

  SubmitRequest out;
  out.workflows.push_back(std::make_shared<const dag::Workflow>(
      loadWorkflowSpec(request.at("workflow").asString())));
  const dag::Workflow& wf = *out.workflows.back();

  if (!request.has("scenarios") || !request.at("scenarios").isArray() ||
      request.at("scenarios").asArray().empty())
    throw std::runtime_error(
        "serve: submit needs a non-empty 'scenarios' array");

  for (const json::JsonValue& s : request.at("scenarios").asArray()) {
    if (!s.isObject())
      throw std::runtime_error("serve: each scenario must be an object");
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    if (s.has("mode")) spec.config.mode = parseDataMode(s.at("mode").asString());
    if (s.has("processors"))
      spec.config.processors =
          integerField<int>(s.at("processors"), "processors", 1);
    if (s.has("bandwidth_mbps"))
      spec.config.linkBandwidthBytesPerSec =
          s.at("bandwidth_mbps").asNumber() * 1e6 / 8.0;
    if (s.has("mtbf_seconds"))
      spec.config.faults.processor.mtbfSeconds =
          s.at("mtbf_seconds").asNumber();
    if (s.has("fault_seed"))
      spec.config.faults.seed =
          integerField<std::uint64_t>(s.at("fault_seed"), "fault_seed", 0);
    if (s.has("label")) spec.label = s.at("label").asString();
    out.scenarios.push_back(std::move(spec));
  }

  if (request.has("base_seed"))
    out.baseSeed =
        integerField<std::uint64_t>(request.at("base_seed"), "base_seed", 0);
  if (request.has("label")) out.label = request.at("label").asString();
  if (request.has("events")) out.events = request.at("events").asBool();
  return out;
}

std::uint64_t parseJobId(const json::JsonValue& request) {
  if (!request.isObject() || !request.has("job"))
    throw std::runtime_error("serve: verb needs a numeric 'job' field");
  return integerField<std::uint64_t>(request.at("job"), "job", 1);
}

json::JsonValue scenarioResultToJson(const runner::ScenarioResult& scenario,
                                     const cloud::Pricing& pricing) {
  const engine::ExecutionResult& r = scenario.result;
  const cloud::CostBreakdown cost =
      engine::computeCost(r, pricing, cloud::CpuBillingMode::Usage);

  json::JsonObject cost_obj;
  cost_obj["cpu_usd"] = cost.cpu.value();
  cost_obj["storage_usd"] = cost.storage.value();
  cost_obj["transfer_in_usd"] = cost.transferIn.value();
  cost_obj["transfer_out_usd"] = cost.transferOut.value();
  cost_obj["total_usd"] = cost.total().value();

  json::JsonObject o;
  o["index"] = scenario.index;
  o["label"] = scenario.label;
  o["from_cache"] = scenario.fromCache;
  o["mode"] = std::string(engine::dataModeName(r.mode));
  o["processors"] = r.processors;
  o["makespan_seconds"] = r.makespanSeconds;
  o["cpu_busy_seconds"] = r.cpuBusySeconds;
  o["bytes_in"] = r.bytesIn.value();
  o["bytes_out"] = r.bytesOut.value();
  o["storage_byte_seconds"] = r.storageByteSeconds;
  o["peak_storage_bytes"] = r.peakStorageBytes.value();
  o["tasks_executed"] = r.tasksExecuted;
  o["task_retries"] = r.taskRetries;
  o["tasks_failed"] = r.tasksFailed;
  o["completed"] = r.completed();
  o["cost"] = std::move(cost_obj);
  return json::JsonValue(std::move(o));
}

json::JsonValue scenarioResultsToJson(
    const std::vector<runner::ScenarioResult>& results,
    const cloud::Pricing& pricing) {
  json::JsonArray arr;
  arr.reserve(results.size());
  for (const runner::ScenarioResult& r : results)
    arr.push_back(scenarioResultToJson(r, pricing));
  return json::JsonValue(std::move(arr));
}

}  // namespace mcsim::serve
