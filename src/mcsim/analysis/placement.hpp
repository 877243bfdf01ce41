// Multi-provider placement planning and the cross-provider placement
// optimizer.
//
// The paper's conclusion anticipates a market where "some providers will
// have a cheaper rate for compute resources while others will have a
// cheaper rate for storage ... applications will have more options to
// consider and more execution and provisioning plans to develop."  Two
// layers evaluate those plans:
//
//  * comparePlacements — the original monthly-service arithmetic: every
//    (compute provider, archive provider) pairing for a request volume,
//    including the cross-provider transfer fees co-location avoids.
//  * optimizePlacement — the full search over the provider catalog
//    (cloud/provider.hpp): provider x instance type x storage class x data
//    mode x data placement, with inputs, intermediates and outputs each
//    placeable on a different provider (paying cross-provider egress at the
//    source plus ingress at the destination), spot-style SKUs, and
//    archive-tier retrieval fees.  Simulation work is deduplicated — a
//    candidate's makespan depends only on (data mode, instance speed), so
//    the optimizer simulates each distinct pair once through the runner
//    (JobQueue / memo-cache aware) and prices every placement combination
//    analytically from those results.  Output is a cheapest-first ranking
//    with the cost–makespan Pareto frontier marked.
#pragma once

#include <string>
#include <vector>

#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/util/table.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::runner {
class JobQueue;
}

namespace mcsim::analysis {

/// What one request moves and computes, independent of provider.
struct RequestShape {
  double cpuSeconds = 0.0;  ///< Σ task runtimes (usage billing).
  Bytes inputBytes;         ///< Archive data read per request.
  Bytes productBytes;       ///< Result shipped to the user.
};

/// Derive the shape from a workflow's aggregates.
RequestShape shapeFromWorkflow(const dag::Workflow& wf);

/// One placement: compute on `compute`, host the archive on `archive`.
struct PlacementPlan {
  std::string computeProvider;
  std::string archiveProvider;
  bool colocated = false;

  Money archiveMonthly;       ///< Archive storage fee per month.
  Money computePerRequest;    ///< CPU fee per request.
  Money transferPerRequest;   ///< Archive egress + compute ingress (zero
                              ///< when co-located) + product egress.
  Money monthlyTotal;         ///< archive + requests x per-request fees.
};

/// Evaluate every (compute, archive) pairing for `requestsPerMonth`
/// requests of the given shape, cheapest first.  Intra-provider data access
/// is free (as with EC2/S3); cross-provider reads pay the archive
/// provider's egress and the compute provider's ingress.
std::vector<PlacementPlan> comparePlacements(
    const RequestShape& shape, Bytes archiveBytes, double requestsPerMonth,
    const std::vector<cloud::Pricing>& providers);

// -- placement optimizer -----------------------------------------------------

/// The user's own site (outside every cloud): the paper's default home for
/// inputs and products.  Data from the user site pays only the compute
/// provider's ingress on the way in; products returned to it pay only the
/// compute provider's egress.
inline const std::string kUserSite = "user";

/// Where one data tier lives: the user site, or a provider storage class.
struct DataSite {
  std::string provider = kUserSite;  ///< kUserSite or a catalog name.
  std::string storageClass;          ///< Empty for the user site.

  bool isUserSite() const { return provider == kUserSite; }
};

/// One point of the search space.
struct PlacementAssignment {
  std::string computeProvider;
  std::string instanceType;
  bool spot = false;      ///< Bid the SKU's spot market instead of on-demand.
  DataSite inputs;        ///< Where external inputs are read from.
  DataSite intermediates; ///< Scratch storage for in-flight files.
  DataSite outputs;       ///< Where products are delivered.
};

/// Itemized cost of one candidate (one simulated request).
struct PlacementCostBreakdown {
  Money cpu;              ///< Instance-billed compute (usage or provisioned).
  Money spotRework;       ///< Expected re-run cost of spot interruptions.
  Money storage;          ///< Intermediates residency (byte-seconds x tier).
  Money scratchTransfer;  ///< Cross-provider intermediates staging.
  Money retrieval;        ///< Archive-tier read-back fees on inputs.
  Money transfer;         ///< Ingress/egress incl. cross-provider hops.
  Money archiveShare;     ///< Amortized monthly archive holding per request.

  Money total() const {
    return cpu + spotRework + storage + scratchTransfer + retrieval +
           transfer + archiveShare;
  }
};

struct PlacementCandidate {
  PlacementAssignment assignment;
  engine::DataMode mode = engine::DataMode::Regular;
  double makespanSeconds = 0.0;
  /// Expected spot reclaims over the run (0 for on-demand candidates).
  double expectedInterruptions = 0.0;
  PlacementCostBreakdown cost;
  /// On the cost–makespan Pareto frontier: no other candidate is both
  /// cheaper and faster.
  bool onFrontier = false;
};

struct OptimizeConfig {
  /// Catalog names to consider; empty = every provider in the catalog.
  std::vector<std::string> providers;
  /// Data modes to sweep (default: all three, paper order).
  std::vector<engine::DataMode> modes = {engine::DataMode::RemoteIO,
                                         engine::DataMode::Regular,
                                         engine::DataMode::DynamicCleanup};
  /// > 0 forces a processor count; 0 = the workflow's max parallelism
  /// ("the requests can run at their full level of parallelism", §4 Q2).
  int processorOverride = 0;
  /// CPU accounting; Usage is the paper's Question-2 service model.
  cloud::CpuBillingMode billing = cloud::CpuBillingMode::Usage;
  /// Honor each SKU's billing granularity (hour-granular 2010 EC2,
  /// minute-granular 2013 GCE).  false = the paper's per-second
  /// idealization everywhere.
  bool skuGranularity = false;
  /// Also evaluate the spot variant of every spot-capable SKU.
  bool useSpot = false;
  /// Also host inputs/outputs on provider storage (every provider x class)
  /// instead of only the user site — the archive-placement axis of the
  /// multi-provider dataset-storage problem.
  bool sweepArchiveHosting = false;
  /// Also place intermediates on providers other than the compute one,
  /// paying cross-provider staging on every scratch write and read.
  bool sweepCrossProviderScratch = false;
  /// Amortize provider-hosted input archives over this request volume
  /// (archiveShare = archiveBytes x tier rate / requestsPerMonth).
  /// 0 disables holding-cost attribution.
  double requestsPerMonth = 0.0;
  /// Hosted-archive size; 0 = the workflow's external input bytes.
  Bytes archiveBytes;
  /// Every engine knob except mode and processors.
  engine::EngineConfig base;
  /// Observes every simulated scenario; merged deterministically.
  obs::Sink* observer = nullptr;
  /// Runs the simulation stage; its workers and memo cache apply (repeated
  /// optimizer runs, or overlap with other sweeps at speed factor 1, are
  /// served without re-simulation).  nullptr = inline, serial and
  /// uncached.  Borrowed.
  runner::JobQueue* queue = nullptr;
};

struct OptimizeResult {
  /// Every candidate, cheapest total first (ties: faster, then lexicographic
  /// assignment — fully deterministic).
  std::vector<PlacementCandidate> ranked;
  std::size_t simulations = 0;  ///< Distinct engine runs dispatched.
  std::size_t candidates = 0;   ///< Priced combinations (== ranked.size()).

  const PlacementCandidate& best() const { return ranked.front(); }
};

/// Sweep provider x instance x storage class x mode x placement for one
/// request of `wf` and rank every candidate by total cost.  Throws
/// std::invalid_argument on unknown provider names or an empty search
/// space; simulation failures propagate from the runner.
OptimizeResult optimizePlacement(const dag::Workflow& wf,
                                 const cloud::ProviderCatalog& catalog,
                                 const OptimizeConfig& config = {});

/// Human-readable ranking: top `top` rows plus every frontier candidate.
Table optimizeTable(const OptimizeResult& result, std::size_t top = 15);

/// One-line recommendation for the cheapest candidate.
std::string describeCandidate(const PlacementCandidate& candidate);

}  // namespace mcsim::analysis
