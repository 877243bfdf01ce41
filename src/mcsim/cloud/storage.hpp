// Cloud storage service (the S3 stand-in).
//
// Tracks which logical objects are resident, integrates the resident-bytes
// curve over simulation time (the paper's GB-hours metric), and records the
// peak footprint.  Capacity is infinite by default ("storage system with
// infinite capacity", §5); a finite capacity can be configured for
// storage-constrained what-ifs, in which case an over-commit throws (this
// simulator never silently drops data).
//
// The usage curve is a flat sorted event vector with incremental area
// accounting (see util/usage_curve.hpp): byteSecondsUsed(), peakBytes() and
// gbHoursUsed() are O(1) while the simulation records in time order, so
// per-sample billing integration no longer rescans the curve.
//
// The resident objects are a dense ledger: two flat arrays of sizes, one
// indexed by file id (keys below kUseKeyBase) and one by per-use key
// (kUseKeyBase + k).  put, erase, contains and sizeOf are array accesses,
// and a ledger sized with reserve() allocates nothing during the run.  An
// array grows on demand to hold the largest key put into it, so its memory
// is linear in that key: keys are meant to be numbered densely from 0 and
// from kUseKeyBase, as the engine numbers them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/units.hpp"
#include "mcsim/util/usage_curve.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::cloud {

/// The first per-use key.  Keys below it are file ids; a key from it on
/// names an object that exists once per use of a file (Remote I/O stages a
/// copy of a file for each task that reads or writes it).
inline constexpr std::uint64_t kUseKeyBase = std::uint64_t{1} << 32;

/// Designated-initializer construction options (PR 3 config-struct style).
struct StorageConfig {
  /// Resident-byte capacity; must be > 0.  Infinite by default (§5).
  double capacityBytes = std::numeric_limits<double>::infinity();
};

class StorageService {
 public:
  /// Unlimited capacity (§5 default).
  explicit StorageService(sim::Simulator& sim)
      : StorageService(sim, StorageConfig{}) {}

  StorageService(sim::Simulator& sim, const StorageConfig& config);

  /// Size the ledger for file ids below `fileKeys` and per-use keys below
  /// kUseKeyBase + `useKeys`, and the usage curve for one put and one erase
  /// of each.  Keys beyond still work; the ledger grows to hold them.
  void reserve(std::size_t fileKeys, std::size_t useKeys);

  /// An object lands on storage now.  `key` must not already be resident.
  void put(std::uint64_t key, Bytes size);
  /// Remove a resident object now.  Unknown keys throw.
  void erase(std::uint64_t key);
  /// True if the object is currently resident.
  bool contains(std::uint64_t key) const;
  /// Size of a resident object; throws if absent.
  Bytes sizeOf(std::uint64_t key) const;

  Bytes residentBytes() const { return Bytes(residentBytes_); }
  std::size_t objectCount() const { return objects_; }
  Bytes peakBytes() const { return curve_.peak(); }

  /// Area under the resident-bytes curve from t=0 to the current simulation
  /// time, in byte-seconds (the quantity the storage fee applies to).
  double byteSecondsUsed() const;
  /// Same, in GB-hours (the paper's reporting unit).
  double gbHoursUsed() const;

  const UsageCurve& curve() const { return curve_; }
  /// Move the usage curve out (the engine hands it to the run's result).
  /// Call it last: the service's curve is empty afterwards.
  UsageCurve takeCurve() { return std::move(curve_); }

  /// Configure unavailability windows (S3 outage injection) as sorted,
  /// non-overlapping [start, end) second intervals.  The service keeps
  /// accepting put/erase during a window — residency bookkeeping is the
  /// engine's ground truth — but exposes availability queries so callers can
  /// defer commits until the service is back.
  void setOutages(std::vector<std::pair<double, double>> windows);
  const std::vector<std::pair<double, double>>& outages() const {
    return outages_;
  }

  /// True if no outage window covers time `t`.
  bool availableAt(double t) const { return availableFrom(t) == t; }
  /// Earliest time >= `t` at which the service is available (the end of the
  /// window covering `t`, else `t` itself).  Binary search over the sorted
  /// window vector.
  double availableFrom(double t) const;

  /// Install a telemetry sink (file create / delete); nullptr disables.
  void setObserver(obs::Sink* observer) { observer_ = observer; }

 private:
  /// Resident size of `key`, or kAbsent if it is not resident.
  double residentSize(std::uint64_t key) const;
  /// The ledger entry of `key`, growing its array to hold it.
  double& entry(std::uint64_t key);

  sim::Simulator& sim_;
  Bytes capacity_;
  std::vector<std::pair<double, double>> outages_;  ///< Sorted [start, end).
  /// Resident sizes by file id and by per-use key - kUseKeyBase; an entry
  /// of kAbsent is not resident (sizes are never negative).
  static constexpr double kAbsent = -1.0;
  std::vector<double> fileBytes_;
  std::vector<double> useBytes_;
  std::size_t objects_ = 0;
  double residentBytes_ = 0.0;
  UsageCurve curve_;
  obs::Sink* observer_ = nullptr;
};

}  // namespace mcsim::cloud
