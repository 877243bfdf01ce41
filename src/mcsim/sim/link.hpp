// Network link between the user/archive site and the cloud storage.
//
// The paper fixes "the bandwidth between the user and the storage resource
// ... at 10 Mbps" (§5).  Concurrent stage-in/stage-out transfers contend for
// that link; the default policy splits bandwidth fairly among active
// transfers (processor-sharing), so a batch of N files takes
// total-bytes/bandwidth regardless of how the transfers overlap — which is
// the aggregate behaviour the paper's stage-in times reflect.  A dedicated
// policy (every transfer sees the full bandwidth, i.e. infinitely many
// parallel links) is provided for the link-sharing ablation.
//
// Two transfer schedulers live behind one API (LinkConfig::schedule):
//
//   * Incremental (default) — processor-sharing in virtual time.  Because
//     every active transfer progresses at the same instantaneous rate (the
//     fair share, or the full bandwidth under Dedicated), a single virtual
//     byte clock V(t) = ∫ rate dt orders all completions: a transfer
//     started at virtual time v finishes at v + totalBytes.  Starts and
//     completions are O(log n) heap operations; nothing rescans the active
//     set, so a burst of n concurrent stage-ins costs O(n log n) instead of
//     the reference scheduler's O(n²).
//   * Reference — the original per-event rescan (credit rate·dt to every
//     active transfer, scan for the minimum remaining), kept selectable
//     in-binary for bench/perf_core before/after runs and differential
//     tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/units.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::sim {

enum class LinkSharing {
  FairShare,  ///< Active transfers each progress at bandwidth / activeCount.
  Dedicated,  ///< Every transfer progresses at full bandwidth.
};

/// Which transfer-completion scheduler a Link uses.  Both produce the same
/// completion times up to floating-point accumulation order; Reference
/// exists for benchmarking and differential testing only.
enum class LinkSchedule {
  Incremental,  ///< Virtual-time processor sharing, O(log n) per event.
  Reference,    ///< Legacy full rescan per event, O(n) per event.
};

/// Designated-initializer construction options (PR 3 config-struct style).
struct LinkConfig {
  double bandwidthBytesPerSec = 0.0;  ///< Required; must be > 0.
  LinkSharing sharing = LinkSharing::FairShare;
  LinkSchedule schedule = LinkSchedule::Incremental;
};

class Link {
 public:
  using TransferId = std::uint64_t;
  // mcsim-lint: allow(sim-std-function) — boundary API invoked once per
  // transfer (not per calendar event); engine handlers outgrow EventFn's
  // inline budget and transfers are orders of magnitude rarer than events.
  using CompletionHandler = std::function<void()>;

  Link(Simulator& sim, const LinkConfig& config);

  /// Begin transferring `size` bytes; `onComplete` fires (as a simulator
  /// event) when the last byte arrives.  Zero-sized transfers complete at
  /// the current time (still asynchronously, preserving event ordering).
  TransferId startTransfer(Bytes size, CompletionHandler onComplete);

  /// Suspend the link (outage injection): active transfers stop progressing
  /// until resume().  New transfers may still be enqueued; they simply make
  /// no progress while down.
  void suspend();
  void resume();
  bool suspended() const { return suspended_; }

  /// Install a telemetry sink (transfer start/progress/finish, share
  /// changes, suspend/resume); nullptr disables.  Per-credit
  /// TransferProgress events are emitted only if the sink accepts them.
  void setObserver(obs::Sink* observer) { observer_ = observer; }

  std::size_t activeTransfers() const { return active_.size(); }
  Bytes totalBytesTransferred() const { return Bytes(completedBytes_); }
  std::size_t completedTransfers() const { return completedCount_; }
  double bandwidth() const { return bandwidth_; }
  LinkSharing sharing() const { return sharing_; }
  LinkSchedule schedule() const {
    return reference_ ? LinkSchedule::Reference : LinkSchedule::Incremental;
  }

 private:
  struct Transfer {
    double totalBytes;
    double remainingBytes;  ///< Reference scheduler state.
    double finishV;         ///< Incremental scheduler: completion virtual time.
    double startTime;
    CompletionHandler onComplete;
  };

  /// Reschedule the next-completion event after any boundary (start,
  /// suspend/resume, completion).  Dispatches on the configured scheduler.
  void reschedule();
  /// Emit LinkShareChanged when the per-transfer rate moved (both paths).
  void emitShareChange(double rate);
  void onLinkEvent();

  // -- Reference scheduler ---------------------------------------------------
  /// Credit progress for [lastUpdate_, now] to all active transfers.
  void accrueProgress();
  /// Fire completions for all transfers that have (numerically) finished.
  void completeFinished();

  // -- Incremental scheduler -------------------------------------------------
  /// Advance the virtual byte clock to sim_.now().
  void advanceVirtualTime();
  /// True if `t` has (numerically) finished at the current virtual time.
  bool virtuallyComplete(const Transfer& t) const;
  /// Pop and fire every finished transfer, in transfer-id order.
  void completeFinishedIncremental();

  double perTransferRate() const;
  /// True if a transfer with `remainingBytes` left counts as finished now:
  /// the residue is within `thresholdBytes`, or moving it at `rate` would
  /// take less time than the clock can resolve at now() — its completion
  /// event would land on now() again, with no progress in between.
  bool finishesNow(double remainingBytes, double thresholdBytes,
                   double rate) const;

  Simulator& sim_;
  double bandwidth_;
  LinkSharing sharing_;
  bool reference_ = false;
  bool suspended_ = false;

  std::map<TransferId, Transfer> active_;  ///< Ordered: deterministic iteration.
  TransferId nextId_ = 1;
  double lastUpdate_ = 0.0;
  EventId pendingEvent_ = kInvalidEvent;

  /// Incremental scheduler: virtual byte clock and (finishV, id) min-heap.
  /// The heap holds exactly the active transfer ids; transfers are never
  /// cancelled, so no tombstones are needed.
  double virtualBytes_ = 0.0;
  std::priority_queue<std::pair<double, TransferId>,
                      std::vector<std::pair<double, TransferId>>,
                      std::greater<std::pair<double, TransferId>>>
      finishHeap_;

  double completedBytes_ = 0.0;
  std::size_t completedCount_ = 0;

  obs::Sink* observer_ = nullptr;
  double lastEmittedRate_ = -1.0;  ///< Last LinkShareChanged rate published.
};

}  // namespace mcsim::sim
