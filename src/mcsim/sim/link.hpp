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
// Transfers are scheduled as processor sharing in virtual time.  Because
// every active transfer progresses at the same instantaneous rate (the fair
// share, or the full bandwidth under Dedicated), a single virtual byte clock
// V(t) = ∫ rate dt orders all completions: a transfer started at virtual
// time v finishes at v + totalBytes.  Starts and completions are O(log n)
// heap operations; nothing rescans the active set, so a burst of n
// concurrent stage-ins costs O(n log n), not the O(n²) of crediting
// rate·dt to every transfer at every boundary.
//
// Active transfers live in a slot table with a freelist, like the
// calendar's arena, and completion handlers are sim::EventFn, so once the
// table and the heap have reached the run's peak concurrency a transfer's
// start and completion allocate nothing.
#pragma once

#include <cstdint>
#include <queue>
#include <tuple>
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

/// Designated-initializer construction options (PR 3 config-struct style).
struct LinkConfig {
  double bandwidthBytesPerSec = 0.0;  ///< Required; must be > 0.
  LinkSharing sharing = LinkSharing::FairShare;
};

class Link {
 public:
  using TransferId = std::uint64_t;
  /// Fired once per transfer.  A capture up to EventFn::kInlineBytes (the
  /// engine's transfer lambdas take at most 32 B) is stored in the slot.
  using CompletionHandler = EventFn;

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

  std::size_t activeTransfers() const { return activeCount_; }
  Bytes totalBytesTransferred() const { return Bytes(completedBytes_); }
  std::size_t completedTransfers() const { return completedCount_; }
  double bandwidth() const { return bandwidth_; }
  LinkSharing sharing() const { return sharing_; }

 private:
  /// One slot of the transfer table.  A free slot has id kNoTransfer and
  /// chains to the next free slot through `nextFree`.
  struct Transfer {
    TransferId id = kNoTransfer;
    double totalBytes = 0.0;
    double finishV = 0.0;  ///< Completion time on the virtual byte clock.
    double startTime = 0.0;
    std::uint32_t nextFree = kNoSlot;
    CompletionHandler onComplete;
  };
  /// A finish-heap entry: ordered by (finishV, id); `slot` locates the
  /// transfer without a lookup.
  struct Pending {
    double finishV;
    TransferId id;
    std::uint32_t slot;
  };
  struct FinishesLater {
    bool operator()(const Pending& a, const Pending& b) const {
      return std::tie(b.finishV, b.id) < std::tie(a.finishV, a.id);
    }
  };
  static constexpr TransferId kNoTransfer = 0;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t slot);
  /// Emit TransferProgress for every active transfer, in transfer-id order.
  void emitProgress();

  /// Reschedule the next-completion event after any boundary (start,
  /// suspend/resume, completion).
  void reschedule();
  /// Emit LinkShareChanged when the per-transfer rate moved.
  void emitShareChange(double rate);
  void onLinkEvent();

  /// Advance the virtual byte clock to sim_.now().
  void advanceVirtualTime();
  /// True if `t` has (numerically) finished at the current virtual time.
  bool virtuallyComplete(const Transfer& t) const;
  /// Pop and fire every finished transfer, in transfer-id order.
  void completeFinished();

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
  bool suspended_ = false;

  /// Transfer table; index = slot.  Slots are reused, so slot order is not
  /// transfer-id order.
  std::vector<Transfer> slots_;
  std::uint32_t freeHead_ = kNoSlot;  ///< Freelist head into slots_.
  std::size_t activeCount_ = 0;
  TransferId nextId_ = 1;
  double lastUpdate_ = 0.0;
  EventId pendingEvent_ = kInvalidEvent;

  /// Virtual byte clock and (finishV, id, slot) min-heap.  The heap holds
  /// exactly the active transfers; transfers are never cancelled, so no
  /// tombstones are needed.
  double virtualBytes_ = 0.0;
  std::priority_queue<Pending, std::vector<Pending>, FinishesLater>
      finishHeap_;

  /// Scratch (id, slot) lists and handlers, reused so that completions and
  /// progress reports allocate nothing once they have reached the run's
  /// peak concurrency.
  std::vector<std::pair<TransferId, std::uint32_t>> finished_;
  std::vector<CompletionHandler> firing_;
  std::vector<std::pair<TransferId, std::uint32_t>> progress_;

  double completedBytes_ = 0.0;
  std::size_t completedCount_ = 0;

  obs::Sink* observer_ = nullptr;
  double lastEmittedRate_ = -1.0;  ///< Last LinkShareChanged rate published.
};

}  // namespace mcsim::sim
