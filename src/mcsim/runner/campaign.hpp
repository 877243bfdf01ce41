// Campaign mode: simulate a sharded survey as one logical experiment.
//
// A survey campaign (workflows/survey) splits into independent shards —
// disjoint tile ranges with no shared files — and each shard is a complete
// workflow.  Campaign mode runs every shard as a scenario on a JobQueue,
// modeling a survey operator who provisions one processor pool per shard
// and runs them concurrently, then rolls the shard results up into
// campaign-level aggregates.  This is the scale at which the job queue's
// thread pool finally sees real work per scenario: one shard of a 10⁶-task
// campaign simulates for seconds, not microseconds.
//
// Determinism matches the JobQueue's guarantees: shard outcomes are pure
// functions of (shard workflow, config, derived seed), so campaign results
// are identical on any queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::runner {

class JobQueue;

struct CampaignOptions {
  /// Per-shard platform configuration (processors, data mode, link,
  /// faults...).  `engine.observer` must be nullptr (a campaign reports
  /// through CampaignResult); `engine.profile` is forced off.
  engine::EngineConfig engine;
  /// != 0: shard i simulates with fault seed deriveSeed(baseSeed, i).
  std::uint64_t baseSeed = 0;
  /// Simulates the shards; its workers and memo cache apply.  nullptr =
  /// inline, serial and uncached.  Borrowed.
  JobQueue* queue = nullptr;
};

/// Campaign-level aggregates over the shard results.
struct CampaignResult {
  std::size_t shards = 0;
  std::size_t tasks = 0;             ///< Σ tasks executed across shards.
  /// Campaign makespan with one pool per shard running concurrently:
  /// max over shard makespans.
  double makespanSeconds = 0.0;
  /// Makespan if one pool ran the shards back to back: Σ shard makespans.
  /// serialized / concurrent is the campaign-level parallel speedup bound.
  double serializedMakespanSeconds = 0.0;
  double totalCpuSeconds = 0.0;      ///< Σ executed task runtimes.
  Bytes bytesIn;                     ///< Σ archive -> cloud transfers.
  Bytes bytesOut;                    ///< Σ cloud -> user transfers.
  double storageByteSeconds = 0.0;   ///< Σ storage residency integrals.
  bool completed = true;             ///< Every shard ran every task.
  /// Per-shard outcomes, in shard order (ScenarioResult::index = shard).
  std::vector<ScenarioResult> shardResults;
};

/// Simulate every shard and aggregate.  Shards are borrowed and must
/// outlive the call.  Throws std::invalid_argument on an empty shard list
/// or a non-null options.engine.observer; the lowest-index shard failure
/// propagates like JobQueue::run.
CampaignResult runCampaign(const std::vector<dag::Workflow>& shards,
                           const CampaignOptions& options = {});

}  // namespace mcsim::runner
