// Scenario memo cache: serve repeated sweep points without re-simulation.
//
// Sweeps frequently re-evaluate identical (workflow, platform, mode, seed)
// points — the planner re-runs the provisioning ladder per goal, reliability
// sweeps share their fault-free baseline, CCR ladders revisit scale 1.0.
// Simulation is deterministic, so a scenario's outcome is a pure function
// of its content; the cache keys an entry by the workflow's content hash
// (dag::Workflow::fingerprint(), cached on the workflow) combined with a
// 64-bit FNV-1a fingerprint of the full effective engine configuration
// (including the derived fault seed and the set of event kinds captured),
// and a hit replays the stored ExecutionResult and captured events verbatim
// — byte-identical to a fresh run by construction, and enforced by the
// determinism replay harness.
//
// Capacity: a default-constructed cache is unbounded (the batch-sweep
// behavior since PR 4).  A server cache is constructed with
// MemoCacheOptions bounds — max resident entries and/or approximate max
// resident bytes — and evicts least-recently-used entries on insert until
// both bounds hold again.  lookup refreshes recency; eviction and
// resident-byte counters surface through MemoStats and the
// scenario_cache_stats obs event.
//
// Hit/miss accounting is deterministic: the JobQueue classifies every
// scenario of a job serially before any simulation starts, so counts never
// depend on worker scheduling.  Thread safety: all members are
// mutex-guarded, so one cache may be shared across queues and concurrent
// jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/event.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::runner {

/// The workflow half of the key: `workflow.fingerprint()`, a content hash
/// of name, tasks (name, type, runtime, release time, input/output file
/// lists), files (name, size, producer, explicit-output flag) and control
/// edges, computed once per workflow and cached on it.  Derived fields
/// (parents, children, levels) are excluded — they are a function of the
/// above.
std::uint64_t fingerprintWorkflow(const dag::Workflow& workflow);

/// FNV-1a fingerprint of every behavior-affecting EngineConfig field (the
/// observer pointer is excluded; `captured` stands in for the event kinds
/// the runner records from the scenario's stream, which decide what a cache
/// entry must hold).
std::uint64_t fingerprintConfig(const engine::EngineConfig& config,
                                obs::EventKindSet captured);
/// `captureEvents` false: nothing captured; true: the full scenario stream
/// (obs::kScenarioKinds, what JobOptions::keepEvents records).
std::uint64_t fingerprintConfig(const engine::EngineConfig& config,
                                bool captureEvents);

/// Combined scenario fingerprint — the cache key.
std::uint64_t fingerprintScenario(const dag::Workflow& workflow,
                                  const engine::EngineConfig& config,
                                  bool captureEvents);

/// fingerprintScenario from precomputed parts — how the runner keys each
/// scenario: its workflow's cached fingerprint plus its own config's.
std::uint64_t combineFingerprints(std::uint64_t workflowFingerprint,
                                  std::uint64_t configFingerprint);

/// Capacity bounds for a server-grade cache.  0 means unbounded (the
/// default, matching the historical per-sweep cache).
struct MemoCacheOptions {
  std::size_t maxEntries = 0;  ///< Max resident entries; 0 = unbounded.
  std::size_t maxBytes = 0;    ///< Approx. max resident bytes; 0 = unbounded.
};

/// Cumulative cache statistics.
struct MemoStats {
  std::size_t hits = 0;       ///< Scenarios served without simulation.
  std::size_t misses = 0;     ///< Scenarios that had to simulate.
  std::size_t entries = 0;    ///< Resident cached scenarios.
  std::size_t evictions = 0;  ///< Entries dropped to hold the capacity bound.
  std::size_t bytes = 0;      ///< Approximate resident bytes.

  /// hits / (hits + misses); 0 before any lookup.
  double hitRate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ScenarioMemoCache {
 public:
  struct Entry {
    engine::ExecutionResult result;
    /// The scenario's stream restricted to the kinds the producing run
    /// captured — empty when it captured none.  The captured kind set is
    /// part of the key, so a hit always holds exactly the caller's kinds.
    std::vector<obs::Event> events;
  };

  ScenarioMemoCache() = default;
  explicit ScenarioMemoCache(MemoCacheOptions options) : options_(options) {}

  const MemoCacheOptions& options() const { return options_; }

  /// Copy of the entry for `key`, or nullopt.  Counts a hit or miss and
  /// refreshes the entry's recency.
  std::optional<Entry> lookup(std::uint64_t key) const;
  /// True if `key` is resident, without touching counters or recency.
  bool contains(std::uint64_t key) const;
  /// Insert or overwrite the entry for `key`, then evict least-recently-
  /// used entries until the configured bounds hold.  A bounded cache may
  /// evict the inserted entry itself when it alone exceeds maxBytes.
  void insert(std::uint64_t key, Entry entry);
  /// Count `n` scenarios served from in-batch deduplication as hits.
  void recordBatchHits(std::size_t n);

  MemoStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Node {
    Entry entry;
    std::size_t bytes = 0;
    /// Position in lru_; std::list splice never invalidates iterators.
    std::list<std::uint64_t>::iterator recency;
  };

  void touch(const Node& node) const;
  void evictOverCapacityLocked();

  MemoCacheOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Node> entries_;
  /// Keys, most recently used first.  Mutable: lookups refresh recency.
  mutable std::list<std::uint64_t> lru_;
  std::size_t bytes_ = 0;
  std::size_t evictions_ = 0;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace mcsim::runner
