// Simulator self-profiling: where does *the simulator's own* wall-clock go?
//
// The cost model measures simulated seconds; this header measures the seconds
// we spend producing them, so survey-scale campaigns (ROADMAP: 10^6-10^7
// tasks) can be capacity-planned before they exist.  A run is split into four
// phases — setup (DAG/config preparation), schedule (outage/deadline/sampler
// wiring), event loop, and result extraction — accumulated by a PhaseProfiler
// and surfaced as obs::PhaseProfile events and Prometheus counters.
//
// Determinism contract: wall-clock must never leak into a captured event
// stream, or replay and the scenario memo cache would diverge run-to-run.
// Profiling is therefore (a) opt-in via EngineConfig::profile /
// JobOptions::profile, (b) emitted with time < 0 (no simulation clock),
// and (c) instrumented only through the MCSIM_TRACE_* macros below, which an
// mcsim-lint rule enforces on hot paths and which compile to nothing under
// MCSIM_TRACE_DISABLED.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "mcsim/obs/sink.hpp"

namespace mcsim::obs {

/// Host clock for self-profiling.  It measures the simulator, not the
/// simulation: readings never reach simulated state or captured streams,
/// and only flow out at all when profiling was explicitly requested.
// mcsim-lint: allow(no-wallclock)
using ProfileClock = std::chrono::steady_clock;

/// Internal phases of one engine run, in execution order.
enum class SimPhase : std::uint8_t {
  Setup,      ///< Workflow validation, Run construction, file/task tables.
  Schedule,   ///< Outage/deadline/sampler scheduling before time starts.
  EventLoop,  ///< The discrete-event loop itself (the hot part).
  Extract,    ///< Pulling ExecutionResult out of the finished run.
};

inline constexpr std::size_t kSimPhaseCount = 4;

/// Stable snake_case name (the JSONL/metrics label).
const char* simPhaseName(SimPhase phase);

/// Accumulates wall-clock per phase.  Plain data, no locking: one profiler
/// belongs to one run on one thread.
class PhaseProfiler {
 public:
  void add(SimPhase phase, double seconds) {
    seconds_[static_cast<std::size_t>(phase)] += seconds;
  }

  double seconds(SimPhase phase) const {
    return seconds_[static_cast<std::size_t>(phase)];
  }

  double totalSeconds() const {
    double total = 0.0;
    for (double s : seconds_) total += s;
    return total;
  }

  /// Emit one PhaseProfile event per phase (time = -1: no simulation clock).
  /// Null-safe; skips sinks that reject the kind.
  void emitTo(Sink* sink) const;

 private:
  std::array<double, kSimPhaseCount> seconds_{};
};

/// RAII phase timer: charges the enclosing scope's wall-clock to one phase of
/// a profiler.  Null profiler = fully inert (the disabled path stays on a
/// single branch, no clock read).
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, SimPhase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ = now();
  }

  ~ScopedPhase() {
    if (profiler_ != nullptr)
      profiler_->add(phase_, std::chrono::duration<double>(now() - start_)
                                 .count());
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  static ProfileClock::time_point now() { return ProfileClock::now(); }

  PhaseProfiler* profiler_;
  SimPhase phase_;
  ProfileClock::time_point start_;
};

}  // namespace mcsim::obs

// Instrumentation macros — the only sanctioned way to put phase timers on
// sim/engine/runner hot paths (enforced by the mcsim-lint `trace-macro`
// rule).  Define MCSIM_TRACE_DISABLED to compile all instrumentation out.
#ifdef MCSIM_TRACE_DISABLED
#define MCSIM_TRACE_PHASE(profiler, phase) \
  do {                                     \
  } while (false)
#else
#define MCSIM_TRACE_CONCAT_INNER(a, b) a##b
#define MCSIM_TRACE_CONCAT(a, b) MCSIM_TRACE_CONCAT_INNER(a, b)
#define MCSIM_TRACE_PHASE(profiler, phase)                 \
  ::mcsim::obs::ScopedPhase MCSIM_TRACE_CONCAT(            \
      mcsimTracePhaseScope_, __LINE__)((profiler), (phase))
#endif
