// Wire protocol for `mcsim serve`: newline-delimited JSON requests and
// responses over a local stream socket (see DESIGN.md "serve wire
// protocol").
//
// Every request is one JSON object on one line:
//
//   {"verb":"submit","id":7,"request":{"workflow":"montage:4",
//    "scenarios":[{"mode":"regular","processors":8}],"base_seed":0,
//    "label":"demo","events":false}}
//   {"verb":"status","job":1}
//   {"verb":"result","job":1}        <- blocks until the job is terminal
//   {"verb":"cancel","job":1}
//   {"verb":"metrics"}               <- Prometheus text, JSON-wrapped
//   {"verb":"ping"}
//   {"verb":"shutdown"}
//
// and every response is one JSON object on one line: {"ok":true,...} with
// the request's "id" echoed when present, or {"ok":false,"error":"..."}.
// A key no reader reads, a repeated key or a field of the wrong type is
// refused by name (DESIGN.md lists each object's keys).
// The daemon additionally answers a literal HTTP "GET /metrics" on a fresh
// connection with a text/plain Prometheus exposition, so an off-the-shelf
// scraper can mount the socket without speaking the JSON protocol.
//
// This header is the shared half: the request model, the workflow spec
// loader (one syntax for --workflow flags and "workflow" fields), and the
// scenario-result serializer used by the service, the CLI client and the
// golden tests — byte-identical result rendering everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mcsim/cloud/pricing.hpp"
#include "mcsim/runner/runner.hpp"
#include "mcsim/util/json.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::serve {

/// Load a workflow from the spec syntax shared by the CLI's --workflow flag
/// and the protocol's "workflow" field: "montage:<degrees>", "cybershake",
/// "epigenomics", "inspiral", "sipht", or a path to a DAX file.  The
/// degrees must be one finite decimal number > 0 with nothing around it;
/// anything else throws std::invalid_argument naming the spec.  Unknown
/// specs fall through to the DAX reader, which throws std::runtime_error.
dag::Workflow loadWorkflowSpec(const std::string& spec);

/// WorkflowSpecMemo::stats().
struct SpecMemoStats {
  std::size_t builds = 0;   ///< Workflows built or read, DAX reads included.
  std::size_t hits = 0;     ///< Loads answered by a resident workflow.
  std::size_t entries = 0;  ///< Resident workflows.
  std::size_t tasks = 0;    ///< Their total task count; <= the budget.
};

/// The generator-built workflows a service hands out, one shared immutable
/// copy per spec, so a repeated request skips the build and reuses the
/// fingerprint the workflow already carries.  Keys are montage specs by
/// their parsed degrees ("montage:4" and "montage:4.0" share) and the
/// gallery names; a DAX path is read on every load, since its file may
/// change between requests.  Least recently used workflows are dropped to
/// keep the resident task count within the budget, and a workflow larger
/// than the whole budget is built for its request and not kept.  Handing a
/// workflow out shares ownership, so eviction never frees one a job still
/// uses.  Thread-safe; builds run outside the lock.
class WorkflowSpecMemo {
 public:
  /// The service's budget, 2^16 tasks: about twenty 4-degree mosaics.
  static constexpr std::size_t kTaskBudget = std::size_t{1} << 16;

  /// `taskBudget` exists for tests: reaching kTaskBudget takes mosaics
  /// whose builds are too slow for a sanitizer run.
  explicit WorkflowSpecMemo(std::size_t taskBudget = kTaskBudget);

  /// The workflow `spec` names (loadWorkflowSpec's syntax and errors).
  std::shared_ptr<const dag::Workflow> load(const std::string& spec);
  SpecMemoStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const dag::Workflow> workflow;
    std::size_t tasks = 0;
  };

  /// The resident workflow for `key`, refreshed as most recent, or null.
  std::shared_ptr<const dag::Workflow> residentLocked(const std::string& key);

  std::size_t taskBudget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< Most recently used first.
  std::map<std::string, std::list<Entry>::iterator> index_;
  std::size_t tasks_ = 0;  ///< Resident tasks; <= taskBudget_.
  std::size_t builds_ = 0;
  std::size_t hits_ = 0;
};

/// A parsed submit payload: scenario specs pointing into `workflows`, which
/// must stay alive as long as the specs are in use (hand both to
/// runner::JobRequest — `keepAlive` exists for exactly this).
struct SubmitRequest {
  std::vector<std::shared_ptr<const dag::Workflow>> workflows;
  std::vector<runner::ScenarioSpec> scenarios;
  std::uint64_t baseSeed = 0;
  std::string label;
  /// Return the job's merged JSONL event stream with the result.
  bool events = false;
};

/// Parse the "request" object of a submit verb, loading its workflow
/// through `specs` when given (a service's memo) and building it afresh
/// otherwise.  Throws std::runtime_error on malformed payloads (a key it
/// does not read, missing workflow, empty scenarios, unknown mode, a string
/// or bool of another type, an integer field — processors, fault_seed,
/// base_seed — that is fractional or out of range for its type (a seed
/// must be at most 2^53, the largest integer a JSON number holds), a
/// bandwidth_mbps that is not finite and > 0, or an mtbf_seconds that is
/// not finite and >= 0; the error names the key), and std::invalid_argument
/// on a malformed montage spec.
SubmitRequest parseSubmitRequest(const json::JsonValue& request,
                                 WorkflowSpecMemo* specs = nullptr);

/// The "request" object that parseSubmitRequest reads back as `request`
/// against workflow spec `workflow`: every key it reads, and no other.
/// Throws std::runtime_error, naming the key, for a seed above 2^53.
json::JsonValue submitRequestToJson(const std::string& workflow,
                                    const SubmitRequest& request);

/// The "job" field of a status/result/cancel verb: an integer >= 1 that
/// fits a job id.  Throws std::runtime_error naming the field otherwise.
std::uint64_t parseJobId(const json::JsonValue& request);

/// Serialize one scenario result the way the serve protocol reports it:
/// execution metrics plus a usage-billed cost breakdown.  Shared with tests
/// so batch-mode goldens and server responses compare byte-for-byte.
json::JsonValue scenarioResultToJson(const runner::ScenarioResult& scenario,
                                     const cloud::Pricing& pricing);

/// Render a whole result vector (spec order preserved).
json::JsonValue scenarioResultsToJson(
    const std::vector<runner::ScenarioResult>& results,
    const cloud::Pricing& pricing);

}  // namespace mcsim::serve
