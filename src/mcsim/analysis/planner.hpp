// Provisioning planner: turns the Question-1 trade-off ("a user who is also
// concerned about the execution time faces a trade-off between minimizing
// the execution cost and minimizing the execution time") into an
// actionable recommendation under a deadline and/or budget.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "mcsim/analysis/experiments.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"

namespace mcsim::analysis {

struct PlannerGoal {
  /// Maximum acceptable makespan; infinity = don't care.
  double deadlineSeconds = std::numeric_limits<double>::infinity();
  /// Maximum acceptable total cost per run; infinity = don't care.
  Money budget{std::numeric_limits<double>::infinity()};
};

struct Recommendation {
  bool feasible = false;
  ProvisioningPoint choice;                 ///< Meaningful when feasible.
  std::vector<ProvisioningPoint> frontier;  ///< Pareto-optimal (time, cost)
                                            ///< points of the sweep.
  std::string rationale;
};

/// Sweep the configured processor ladder (default 1..128 when
/// `sweep.processorCounts` is empty) and pick the cheapest configuration
/// that satisfies the goal; ties break toward the faster one.  When nothing
/// satisfies the goal, `feasible` is false and `choice` is the point that
/// comes closest to the deadline.  `sweep.queue` runs the ladder.
Recommendation recommendProvisioning(const dag::Workflow& wf,
                                     const cloud::Pricing& pricing,
                                     const PlannerGoal& goal,
                                     const ProvisioningSweepConfig& sweep = {});

/// The non-dominated subset of a sweep: keep a point unless another is both
/// cheaper and faster.
std::vector<ProvisioningPoint> paretoFrontier(
    std::vector<ProvisioningPoint> points);

}  // namespace mcsim::analysis
