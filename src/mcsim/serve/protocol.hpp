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
// The daemon additionally answers a literal HTTP "GET /metrics" on a fresh
// connection with a text/plain Prometheus exposition, so an off-the-shelf
// scraper can mount the socket without speaking the JSON protocol.
//
// This header is the shared half: the request model, the workflow spec
// loader (one syntax for --workflow flags and "workflow" fields), and the
// scenario-result serializer used by the service, the CLI client and the
// golden tests — byte-identical result rendering everywhere.
#pragma once

#include <cstdint>
#include <memory>
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
/// "epigenomics", "inspiral", "sipht", or a path to a DAX file.  Throws
/// std::invalid_argument / std::runtime_error on unknown specs.
dag::Workflow loadWorkflowSpec(const std::string& spec);

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

/// Parse the "request" object of a submit verb.  Throws std::runtime_error
/// on malformed payloads (missing workflow, empty scenarios, unknown mode,
/// or an integer field — processors, fault_seed, base_seed — that is
/// fractional or out of range for its type; the error names the field).
SubmitRequest parseSubmitRequest(const json::JsonValue& request);

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
