#include "mcsim/serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/util/contract.hpp"
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

/// The JSON number field `field`, refused unless it is finite and > 0 (or
/// >= 0 when `zeroAllowed`).
double finiteField(const json::JsonValue& v, const char* field,
                        bool zeroAllowed) {
  const double d = v.isNumber() ? v.asNumber() : std::nan("");
  if (!std::isfinite(d) || d < 0.0 || (!zeroAllowed && !(d > 0.0)))
    throw std::runtime_error(std::string("serve: '") + field +
                             "' must be a finite number " +
                             (zeroAllowed ? ">= 0" : "> 0"));
  return d;
}

constexpr std::string_view kMontagePrefix = "montage:";

bool isMontageSpec(const std::string& spec) {
  return spec.rfind(kMontagePrefix, 0) == 0;
}

/// The degrees of a "montage:<degrees>" spec.  The whole suffix must be
/// one decimal number, finite and > 0 — no sign, space, hex or trailing
/// text — so no malformed spec aliases a real mosaic.
double montageDegrees(const std::string& spec) {
  const char* first = spec.data() + kMontagePrefix.size();
  const char* last = spec.data() + spec.size();
  double degrees = 0.0;
  const auto [end, ec] =
      std::from_chars(first, last, degrees, std::chars_format::general);
  if (ec != std::errc() || end != last || !std::isfinite(degrees) ||
      !(degrees > 0.0))
    throw std::invalid_argument("serve: bad workflow spec '" + spec +
                                "' (want montage:<degrees>)");
  return degrees;
}

/// The gallery generator named `spec`, or nullptr.
using Generator = dag::Workflow (*)();
Generator galleryGenerator(const std::string& spec) {
  if (spec == "cybershake") return [] { return workflows::buildCyberShake(); };
  if (spec == "epigenomics")
    return [] { return workflows::buildEpigenomics(); };
  if (spec == "inspiral") return [] { return workflows::buildInspiral(); };
  if (spec == "sipht") return [] { return workflows::buildSipht(); };
  return nullptr;
}

/// WorkflowSpecMemo's key for `spec`: montage specs by their parsed degrees
/// in shortest round-trip form, gallery names as they are, and nothing for
/// a DAX path — a file may change between two requests that name it.
std::optional<std::string> generatorKey(const std::string& spec) {
  if (isMontageSpec(spec)) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                         montageDegrees(spec));
    MCSIM_ASSERT(ec == std::errc(), "to_chars overflow for ", spec);
    return std::string(kMontagePrefix) + std::string(buf, end);
  }
  if (galleryGenerator(spec) != nullptr) return spec;
  return std::nullopt;
}

}  // namespace

dag::Workflow loadWorkflowSpec(const std::string& spec) {
  if (isMontageSpec(spec))
    return montage::buildMontageWorkflow(montageDegrees(spec));
  if (const Generator build = galleryGenerator(spec)) return build();
  return dag::readDaxFile(spec);
}

WorkflowSpecMemo::WorkflowSpecMemo(std::size_t taskBudget)
    : taskBudget_(taskBudget) {}

std::shared_ptr<const dag::Workflow> WorkflowSpecMemo::residentLocked(
    const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->workflow;
}

std::shared_ptr<const dag::Workflow> WorkflowSpecMemo::load(
    const std::string& spec) {
  const std::optional<std::string> key = generatorKey(spec);
  if (key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = residentLocked(*key)) {
      ++hits_;
      return hit;
    }
  }
  // Build outside the lock: concurrent loads of other specs proceed, and
  // two first loads of one spec both build, then share the first insert.
  auto built = std::make_shared<const dag::Workflow>(loadWorkflowSpec(spec));
  const std::lock_guard<std::mutex> lock(mutex_);
  ++builds_;
  if (!key) return built;
  if (auto first = residentLocked(*key)) return first;
  const std::size_t tasks = built->taskCount();
  if (tasks > taskBudget_) return built;  // never retained
  lru_.push_front(Entry{*key, built, tasks});
  index_.emplace(*key, lru_.begin());
  tasks_ += tasks;
  while (tasks_ > taskBudget_) {
    tasks_ -= lru_.back().tasks;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return built;
}

SpecMemoStats WorkflowSpecMemo::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {builds_, hits_, lru_.size(), tasks_};
}

SubmitRequest parseSubmitRequest(const json::JsonValue& request,
                                 WorkflowSpecMemo* specs) {
  if (!request.isObject())
    throw std::runtime_error("serve: submit 'request' must be an object");
  if (!request.has("workflow") || !request.at("workflow").isString())
    throw std::runtime_error("serve: submit needs a 'workflow' spec string");

  SubmitRequest out;
  if (!request.has("scenarios") || !request.at("scenarios").isArray() ||
      request.at("scenarios").asArray().empty())
    throw std::runtime_error(
        "serve: submit needs a non-empty 'scenarios' array");

  for (const json::JsonValue& s : request.at("scenarios").asArray()) {
    if (!s.isObject())
      throw std::runtime_error("serve: each scenario must be an object");
    runner::ScenarioSpec spec;
    if (s.has("mode")) spec.config.mode = parseDataMode(s.at("mode").asString());
    if (s.has("processors"))
      spec.config.processors =
          integerField<int>(s.at("processors"), "processors", 1);
    if (s.has("bandwidth_mbps"))
      spec.config.linkBandwidthBytesPerSec =
          finiteField(s.at("bandwidth_mbps"), "bandwidth_mbps", false) *
          1e6 / 8.0;
    // 0 disables the crash model.
    if (s.has("mtbf_seconds"))
      spec.config.faults.processor.mtbfSeconds =
          finiteField(s.at("mtbf_seconds"), "mtbf_seconds", true);
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

  // Load last, so a submit refused for its fields builds nothing.
  const std::string& workflow = request.at("workflow").asString();
  out.workflows.push_back(
      specs != nullptr
          ? specs->load(workflow)
          : std::make_shared<const dag::Workflow>(loadWorkflowSpec(workflow)));
  for (runner::ScenarioSpec& spec : out.scenarios)
    spec.workflow = out.workflows.back().get();
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
