#include "mcsim/runner/memo.hpp"

#include <cstring>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/faults/faults.hpp"
#include "mcsim/util/contract.hpp"
#include "mcsim/util/usage_curve.hpp"

namespace mcsim::runner {
namespace {

// FNV-1a, 64-bit, for the config half of the key (the workflow half is
// dag::Workflow::fingerprint()).  Not cryptographic — collision of two
// *different* scenarios inside one process's sweeps is the only failure
// mode, and at ~10^4 distinct points per process the 64-bit birthday bound
// (~10^9) has comfortable margin.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= kFnvPrime;
    }
  }
  void u8(std::uint8_t v) { bytes(&v, sizeof v); }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    // +0.0 and -0.0 compare equal but differ in bits; canonicalize so
    // behaviorally identical configs share a key.  The comparison is exact
    // on purpose.  mcsim-lint: allow(float-equality)
    if (v == 0.0) v = 0.0;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffset;
};

void hashOutages(Fnv& h, const std::vector<faults::OutageWindow>& outages) {
  h.u64(outages.size());
  for (const auto& w : outages) {
    h.f64(w.startSeconds);
    h.f64(w.durationSeconds);
  }
}

}  // namespace

std::uint64_t fingerprintWorkflow(const dag::Workflow& workflow) {
  return workflow.fingerprint();
}

std::uint64_t fingerprintConfig(const engine::EngineConfig& config,
                                obs::EventKindSet captured) {
  Fnv h;
  h.u8(static_cast<std::uint8_t>(config.mode));
  h.u32(static_cast<std::uint32_t>(config.processors));
  h.f64(config.linkBandwidthBytesPerSec);
  h.u8(static_cast<std::uint8_t>(config.linkSharing));
  h.u8(static_cast<std::uint8_t>(config.scheduler));
  h.f64(config.vmStartupSeconds);
  h.f64(config.vmTeardownSeconds);
  h.u64(config.outages.size());
  for (const auto& w : config.outages) {
    h.f64(w.startSeconds);
    h.f64(w.durationSeconds);
  }
  h.f64(config.storageCapacityBytes);
  h.f64(config.taskFailureProbability);
  h.u64(config.failureSeed);
  h.u8(config.trace ? 1 : 0);
  h.f64(config.samplePeriodSeconds);
  h.u8(config.profile ? 1 : 0);
  h.u8(config.referenceCore ? 1 : 0);

  const faults::FaultConfig& f = config.faults;
  h.f64(f.processor.mtbfSeconds);
  hashOutages(h, f.link.outages);
  hashOutages(h, f.storage.outages);
  h.u8(static_cast<std::uint8_t>(f.retry.kind));
  h.u32(static_cast<std::uint32_t>(f.retry.maxRetries));
  h.f64(f.retry.delaySeconds);
  h.f64(f.retry.multiplier);
  h.f64(f.retry.maxDelaySeconds);
  h.f64(f.retry.jitterFraction);
  h.f64(f.legacy.probability);
  h.u64(f.legacy.seed);
  h.f64(f.deadlineSeconds);
  h.u64(f.seed);

  h.u64(captured.bits());
  return h.value();
}

std::uint64_t fingerprintConfig(const engine::EngineConfig& config,
                                bool captureEvents) {
  return fingerprintConfig(
      config, captureEvents ? obs::kScenarioKinds : obs::EventKindSet{});
}

std::uint64_t fingerprintScenario(const dag::Workflow& workflow,
                                  const engine::EngineConfig& config,
                                  bool captureEvents) {
  return combineFingerprints(fingerprintWorkflow(workflow),
                             fingerprintConfig(config, captureEvents));
}

std::uint64_t combineFingerprints(std::uint64_t workflowFingerprint,
                                  std::uint64_t configFingerprint) {
  Fnv h;
  h.u64(workflowFingerprint);
  h.u64(configFingerprint);
  return h.value();
}

namespace {

/// Approximate resident footprint of one entry: the struct itself plus the
/// dominant heap vectors (event stream, per-task records, storage curve).
/// Strings inside log events are not chased — this is a capacity signal,
/// not an allocator audit.
std::size_t approxEntryBytes(const ScenarioMemoCache::Entry& entry) {
  return sizeof(ScenarioMemoCache::Entry) +
         entry.events.size() * sizeof(obs::Event) +
         entry.result.taskRecords.size() * sizeof(engine::TaskRecord) +
         entry.result.storageCurve.eventCount() * sizeof(UsageEvent);
}

}  // namespace

void ScenarioMemoCache::touch(const Node& node) const {
  lru_.splice(lru_.begin(), lru_, node.recency);
}

void ScenarioMemoCache::evictOverCapacityLocked() {
  const auto over = [&] {
    return (options_.maxEntries != 0 &&
            entries_.size() > options_.maxEntries) ||
           (options_.maxBytes != 0 && bytes_ > options_.maxBytes);
  };
  while (over() && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    const auto it = entries_.find(victim);
    MCSIM_ASSERT(it != entries_.end(), "memo LRU key ", victim,
                 " missing from the entry map");
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::optional<ScenarioMemoCache::Entry> ScenarioMemoCache::lookup(
    std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  touch(it->second);
  return it->second.entry;
}

std::optional<ScenarioMemoCache::Entry> ScenarioMemoCache::peek(
    std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  touch(it->second);
  return it->second.entry;
}

bool ScenarioMemoCache::contains(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(key) != entries_.end();
}

void ScenarioMemoCache::insert(std::uint64_t key, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Fingerprint stability: re-running a memoized scenario must reproduce the
  // cached result.  A mismatch here means either the fingerprint missed a
  // config field (two scenarios collided) or the engine went nondeterministic.
  const auto it = entries_.find(key);
  MCSIM_ASSERT(it == entries_.end() ||
                   (it->second.entry.result.makespanSeconds ==
                        entry.result.makespanSeconds &&
                    it->second.entry.events.size() == entry.events.size()),
               "memo key ", key, " re-inserted with a different result");
  const std::size_t entryBytes = approxEntryBytes(entry);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second.entry = std::move(entry);
    it->second.bytes = entryBytes;
    touch(it->second);
  } else {
    lru_.push_front(key);
    Node node;
    node.entry = std::move(entry);
    node.bytes = entryBytes;
    node.recency = lru_.begin();
    entries_.emplace(key, std::move(node));
  }
  bytes_ += entryBytes;
  evictOverCapacityLocked();
}

void ScenarioMemoCache::recordBatchHits(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ += n;
}

MemoStats ScenarioMemoCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MemoStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = entries_.size();
  stats.evictions = evictions_;
  stats.bytes = bytes_;
  return stats;
}

std::size_t ScenarioMemoCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ScenarioMemoCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  evictions_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace mcsim::runner
