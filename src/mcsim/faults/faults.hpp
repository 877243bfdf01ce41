// Fault-injection and recovery models layered on the DES core.
//
// The paper's §8 only gestures at reliability ("the reliability and
// availability of the computational and storage resources ... are also an
// important concern"); related work (Juve et al., "Scientific Workflow
// Applications on Amazon EC2"; Berriman et al., "The Application of Cloud
// Computing to Astronomy") shows transient node loss and retry overhead
// dominate real cloud cost variance.  This module supplies the failure
// *models*; the execution engine supplies the *mechanics* (preempting
// in-flight work via Simulator::cancel, re-staging files, billing waste):
//
//   * ProcessorFaults — spot-style instance loss mid-task: each execution
//     attempt draws an exponential time-to-failure with the configured MTBF;
//     if it lands inside the attempt's runtime the processor crashes there,
//     the partial work is billed as waste, and the task retries per policy.
//   * LegacyCoinFlip — per-task transient failure (the A9 ablation's
//     model): each completion attempt fails with a fixed probability and
//     re-executes at once on the same processor.
//   * RetryPolicy — fixed delay or exponential backoff with deterministic
//     jitter, capped by a per-task retry budget.  A task that exhausts its
//     budget is reported failed and its descendants are abandoned.
//   * Outage windows — link and storage unavailability intervals, either
//     listed explicitly or generated as a deterministic MTBF/MTTR
//     alternating-renewal schedule.
//   * deadlineSeconds — a per-workflow deadline: at the deadline every
//     in-flight attempt is preempted (partial work billed) and the run is
//     reported incomplete.
//
// Everything is seeded through the portable Rng so runs are bit-reproducible:
// the same FaultConfig and workflow always produce byte-identical event
// streams.  The coin flip draws from its own Rng stream (legacy.seed), in
// the engine's original draw order, so the fault seed never moves it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mcsim/util/rng.hpp"

namespace mcsim::faults {

/// A closed-open unavailability interval [startSeconds, startSeconds +
/// durationSeconds).
struct OutageWindow {
  double startSeconds = 0.0;
  double durationSeconds = 0.0;

  double endSeconds() const { return startSeconds + durationSeconds; }
};

/// How long to wait before re-executing a crashed attempt.
enum class RetryPolicyKind {
  Fixed,               ///< Constant delaySeconds between attempts.
  ExponentialBackoff,  ///< delay * multiplier^retryIndex, capped.
};

struct RetryPolicy {
  RetryPolicyKind kind = RetryPolicyKind::Fixed;
  /// Retry budget: a task makes at most maxRetries + 1 execution attempts.
  int maxRetries = 3;
  /// Fixed delay / backoff base, in seconds.
  double delaySeconds = 0.0;
  /// Backoff growth factor (>= 1).
  double multiplier = 2.0;
  /// Backoff ceiling; 0 = uncapped.
  double maxDelaySeconds = 0.0;
  /// Deterministic jitter: the delay is stretched by a uniform factor in
  /// [1, 1 + jitterFraction), drawn from the fault Rng.  0 disables.
  double jitterFraction = 0.0;

  /// Undelayed (jitter-free) delay before retry number `retryIndex` (0-based).
  double baseDelay(int retryIndex) const;
  /// Full delay including the jitter draw (consumes one Rng value when
  /// jitterFraction > 0; `rng` may be null iff jitterFraction == 0).
  double delayFor(int retryIndex, Rng* rng) const;

  void validate() const;
};

/// Spot-style processor loss.  mtbfSeconds == 0 disables the model.
struct ProcessorFaults {
  /// Mean time between failures of a busy processor; each execution attempt
  /// draws an exponential time-to-failure with this mean.
  double mtbfSeconds = 0.0;
};

/// Link unavailability windows: transfers in flight stop progressing during
/// each window; running computations are unaffected.
struct LinkFaults {
  std::vector<OutageWindow> outages;
};

/// Storage (S3) unavailability windows.  While storage is down the
/// user<->storage link is also suspended (nothing can be read or written)
/// and tasks that finish computing cannot commit their outputs until the
/// window ends — they hold their processor, extending the billed makespan.
struct StorageFaults {
  std::vector<OutageWindow> outages;
};

/// Per-task transient failure (paper §8): one Bernoulli draw per completion
/// attempt (in completion order, from a dedicated Rng), immediate
/// re-execution on the same processor, full runtime billed, no retry
/// budget, no re-staging.  The name is historical: it was the engine's
/// first failure model.
struct LegacyCoinFlip {
  double probability = 0.0;  ///< In [0, 1).
  std::uint64_t seed = 1;
};

struct FaultConfig {
  ProcessorFaults processor;
  LinkFaults link;
  StorageFaults storage;
  RetryPolicy retry;
  LegacyCoinFlip legacy;
  /// Workflow deadline in simulated seconds; 0 = none.
  double deadlineSeconds = 0.0;
  /// Seed for the fault Rng (crash times, retry jitter).  Independent of
  /// legacy.seed so legacy configurations replay unchanged.
  std::uint64_t seed = 1;

  /// True if any model can alter a run (crashes, outages, legacy flips or a
  /// deadline are configured).
  bool anyEnabled() const;
  void validate() const;
};

/// Deterministic alternating-renewal outage schedule: up-times are
/// exponential with mean `mtbfSeconds`, down-times exponential with mean
/// `mttrSeconds`, until `horizonSeconds`.  Windows are returned sorted and
/// non-overlapping.  The same (arguments, rng state) always produce the same
/// schedule.
std::vector<OutageWindow> generateOutageSchedule(double mtbfSeconds,
                                                 double mttrSeconds,
                                                 double horizonSeconds,
                                                 Rng& rng);

/// Merge, sort and validate outage windows (overlapping or adjacent windows
/// coalesce).  Throws std::invalid_argument on negative bounds.
std::vector<OutageWindow> normalizeOutages(std::vector<OutageWindow> windows);

/// Per-run fault state: owns the Rng streams and the per-task retry budgets.
/// The engine asks it three questions — "does this attempt crash, and when?",
/// "may this task retry, and after what delay?", and "does the legacy coin
/// land on failure?".  All draws are deterministic in the order asked.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  /// Crash model: the offset into the attempt at which the processor dies,
  /// or nullopt if the attempt survives its full `runtimeSeconds`.  Consumes
  /// one exponential draw per call when the model is enabled.
  std::optional<double> drawCrashTime(double runtimeSeconds);

  /// Consume one retry from `task`'s budget.  Returns the delay before the
  /// re-attempt, or nullopt when the budget is exhausted (the task is then
  /// permanently failed).
  std::optional<double> nextRetryDelay(std::uint32_t task);

  /// Execution attempts made by `task` so far known to the injector
  /// (1 + retries granted).  Used for reporting.
  int attemptsMade(std::uint32_t task) const;

  /// Legacy end-of-attempt coin flip; false when the legacy model is off.
  /// Draw order matches the pre-faults engine exactly.
  bool legacyAttemptFails();

  bool crashModelEnabled() const { return config_.processor.mtbfSeconds > 0.0; }
  bool legacyEnabled() const { return config_.legacy.probability > 0.0; }

 private:
  FaultConfig config_;
  std::optional<Rng> faultRng_;   ///< Crash times and retry jitter.
  std::optional<Rng> legacyRng_;  ///< The coin flip stream.
  std::vector<int> retriesUsed_;  ///< Indexed lazily by task id.

  int& retriesSlot(std::uint32_t task);
};

}  // namespace mcsim::faults
