// The event bus: a Sink receives every Event an instrumented component
// emits.  Components hold a `Sink*` that defaults to nullptr, so disabled
// telemetry costs exactly one pointer test per potential emission ("null
// sink check") and never formats a string.
//
// `accepts()` is a cheap pre-filter: emitters of high-volume kinds (per-byte
// transfer progress, billing attribution bookkeeping) ask before building
// the payload, so a sink that only wants task lifecycle events does not tax
// the hot paths.  accepts() must be stable for the lifetime of a run.
//
// accepts() must also be exact — true only for kinds onEvent() acts on.
// The runner's JobQueue captures, memoizes and replays only the kinds a
// job's observer accepts (and runs the engine with no observer at all when
// it accepts none of them), so an over-broad answer costs capture for
// nothing and an over-narrow one silently loses events.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "mcsim/obs/event.hpp"

namespace mcsim::obs {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void onEvent(const Event& event) = 0;
  /// Would this sink do anything with events of `kind`?  Default: yes.
  virtual bool accepts(EventKind kind) const {
    (void)kind;
    return true;
  }
};

/// The kinds `sink` accepts, asked once per kind.
EventKindSet acceptedKinds(const Sink& sink);

/// Swallows everything.  Useful as an explicit "telemetry off" terminal and
/// for measuring the enabled-but-ignored overhead in benchmarks.
class NullSink final : public Sink {
 public:
  void onEvent(const Event&) override {}
  bool accepts(EventKind) const override { return false; }
};

/// Forwards each event to every child that accepts its kind.  Children are
/// not owned; nullptr children are ignored at add() time.
class FanOutSink final : public Sink {
 public:
  FanOutSink() = default;
  explicit FanOutSink(std::vector<Sink*> sinks);

  void add(Sink* sink);
  std::size_t childCount() const { return sinks_.size(); }

  void onEvent(const Event& event) override;
  bool accepts(EventKind kind) const override;

 private:
  std::vector<Sink*> sinks_;
};

/// Forwards to an inner sink only the events of `kinds` that it accepts:
/// the runner's per-scenario capture (kinds = what the job's observer
/// accepts) and the serve daemon's per-job tap into its shared metrics.
/// The inner sink is borrowed.
class FilterSink final : public Sink {
 public:
  FilterSink(Sink& inner, EventKindSet kinds);

  void onEvent(const Event& event) override;
  bool accepts(EventKind kind) const override { return kinds_.contains(kind); }

 private:
  Sink& inner_;
  EventKindSet kinds_;  ///< `kinds` that the inner sink accepts.
};

/// Appends every event to an unbounded in-memory vector — the runner's
/// per-scenario capture buffer (replayed into the job's observer at join)
/// and a convenient test double.  Prefer RingBufferSink when only the tail
/// of a long run matters.
class CollectingSink final : public Sink {
 public:
  void onEvent(const Event& event) override;

  std::size_t size() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }
  /// Move the buffer out, leaving the sink empty.
  std::vector<Event> take();

 private:
  std::vector<Event> events_;
};

/// Serializes delivery to a single-threaded inner sink.  The simulator
/// itself is single-threaded, but the runner's JobQueue finalizes jobs on
/// whichever worker finishes last — a MetricsSink or JSONL writer shared
/// across jobs must sit behind one of these.  The inner sink is borrowed.
class MutexSink final : public Sink {
 public:
  explicit MutexSink(Sink& inner);

  void onEvent(const Event& event) override;
  bool accepts(EventKind kind) const override;

  /// The serializing mutex, for callers that must read the *inner* sink's
  /// state coherently while events keep arriving — e.g. scraping a metrics
  /// registry that a MetricsSink behind this wrapper is still updating.
  std::mutex& mutex() { return mutex_; }

 private:
  Sink& inner_;
  std::mutex mutex_;
};

/// Keeps the most recent `capacity` events in memory — the flight recorder
/// for tests and post-mortem inspection of a run's tail.
class RingBufferSink final : public Sink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void onEvent(const Event& event) override;

  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events evicted because the buffer was full.
  std::size_t dropped() const { return dropped_; }
  /// Retained events, oldest first.
  std::vector<Event> snapshot() const;

  /// Number of retained events holding payload type T.
  template <class T>
  std::size_t countOf() const {
    std::size_t n = 0;
    for (const Event& e : buffer_)
      if (std::holds_alternative<T>(e.payload)) ++n;
    return n;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Index of the oldest event once full.
  std::size_t dropped_ = 0;
  std::vector<Event> buffer_;
};

}  // namespace mcsim::obs
