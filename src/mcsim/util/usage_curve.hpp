// Piecewise-constant resource-usage-over-time accounting.
//
// The paper's fourth simulation metric (§5): "The storage used at the
// resource in terms of GB-hours.  This is done by creating a curve that
// shows the amount of storage used at the resource with the passage of time
// and then calculating the area under the curve."  `UsageCurve` is exactly
// that curve: `add`/`remove` record step changes and `integral` computes the
// area in byte-seconds.
//
// Storage layout: one flat vector of step events (the export format) plus
// incremental running accumulators (level, peak, area, last event time)
// maintained on every append.  While events arrive in non-decreasing time
// order — the only order a simulation produces — every query is O(1) and
// replays the exact floating-point accumulation sequence of a full scan, so
// results are bit-identical to the scanning implementation.  Out-of-order
// recording is still supported: it falls back to lazy sort + scan.
#pragma once

#include <cstddef>
#include <vector>

#include "mcsim/util/units.hpp"

namespace mcsim {

/// One step change in resident bytes at a point in time.
struct UsageEvent {
  double time = 0.0;  ///< Simulation time in seconds.
  double delta = 0.0; ///< Signed change in resident bytes.
};

/// Records step changes in a byte-valued level and integrates the resulting
/// piecewise-constant curve.  Events may be recorded out of order; queries
/// sort lazily.
class UsageCurve {
 public:
  /// Record `amount` becoming resident at `time`.
  void add(double time, Bytes amount);
  /// Record `amount` being released at `time`.
  void remove(double time, Bytes amount);

  /// Current level: sum of all recorded deltas (time-independent).
  Bytes current() const { return Bytes(level_); }

  /// Maximum level ever attained.  Zero for an empty curve.
  Bytes peak() const;

  /// Area under the curve from the first event to `endTime`, in
  /// byte-seconds.  Events after `endTime` are ignored; if the level is
  /// nonzero at `endTime` the final segment is truncated there.
  double integralByteSeconds(double endTime) const;

  /// Area under the curve over its full recorded span (last event time is
  /// the end).  A level left nonzero after the last event contributes
  /// nothing beyond it.
  double integralByteSeconds() const;

  /// GB-hours under the curve up to `endTime` — the paper's reporting unit.
  double integralGBHours(double endTime) const;

  /// The step events in time order (ties keep insertion order).
  std::vector<UsageEvent> sortedEvents() const;

  /// Make room for `events` step events, so recording that many allocates
  /// nothing.
  void reserve(std::size_t events) { events_.reserve(events); }

  std::size_t eventCount() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  void append(double time, double delta);
  void ensureSorted() const;
  /// Full scan of the sorted event list (out-of-order fallback).
  double scanIntegral(double endTime) const;

  std::vector<UsageEvent> events_;
  mutable bool sorted_ = true;

  // Incremental accumulators, valid while events arrive in time order
  // (sorted_ == true).  level_ tracks insertion order and is always valid —
  // current() is order-independent.
  double level_ = 0.0;
  double peak_ = 0.0;
  double area_ = 0.0;     ///< Area from the first event to lastTime_.
  double lastTime_ = 0.0; ///< Time of the latest in-order event.
};

}  // namespace mcsim
