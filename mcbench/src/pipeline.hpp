// The operation pipeline shared by the in-process workloads: scenario specs
// through the runner (or, traced, through the benchmark's own serial calls
// into the memo cache and the engine), then pricing and result rendering.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcbench {

/// Worker threads for in-process pools: two (one on a single-core host), a
/// fixed count so that figures from hosts with different core counts stay
/// comparable and the pool never takes every core of a small host.
int poolWorkers();

/// The amazon-2008 pricing, loaded from the committed provider profiles
/// (config/providers/, relative to the repository root) as `mcsim
/// optimize --providers` does.  Throws if the profiles cannot be loaded.
mcsim::cloud::Pricing loadPricing();

/// Run `specs` in spec order.  With a queue: one job on it (the queue's
/// cache serves repeats).  Without: the traced path — fingerprint, look up,
/// simulate misses and insert, one scenario at a time, each call timed into
/// `layers`.  Either way `cache` hit/lookup deltas are added to `report`.
std::vector<mcsim::runner::ScenarioResult> runBatch(
    const std::vector<mcsim::runner::ScenarioSpec>& specs,
    mcsim::runner::JobQueue* queue, mcsim::runner::ScenarioMemoCache& cache,
    LayerTimes& layers, Report& report);

/// Price every result (into `costs`, appended) and render the batch as the
/// serve protocol's result JSON, then parse the text back as a client does.
/// Checks each rendered result ran all `tasks[i]` tasks to completion.
void priceAndRender(const std::vector<mcsim::runner::ScenarioResult>& results,
                    const std::vector<std::size_t>& tasks,
                    const mcsim::cloud::Pricing& pricing,
                    mcsim::cloud::CpuBillingMode billing,
                    mcsim::cloud::BillingGranularity granularity,
                    std::vector<mcsim::cloud::CostBreakdown>& costs,
                    LayerTimes& layers, Report& report);

/// True if two results agree in every simulated quantity the benchmark
/// reports (bitwise on doubles).
bool sameResult(const mcsim::engine::ExecutionResult& a,
                const mcsim::engine::ExecutionResult& b);

}  // namespace mcbench
