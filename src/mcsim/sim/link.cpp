#include "mcsim/sim/link.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "mcsim/util/contract.hpp"

namespace mcsim::sim {
namespace {
/// Residual byte counts below the completion threshold are treated as done.
/// The threshold must scale with the transfer size: progress is credited as
/// rate * dt across many events, so the accumulated rounding error is
/// relative to the byte count (a 173 MB mosaic accrues ~1e-6 B of dust over
/// a few dozen events, and the final reschedule delay can underflow
/// `now + delay == now`, stalling the transfer forever at an absolute
/// epsilon).  1e-9 relative keeps five orders of margin over observed error
/// while remaining far below any meaningful byte count.
constexpr double kEpsilonBytes = 1e-6;
constexpr double kRelativeEpsilon = 1e-9;

double completionThreshold(double totalBytes) {
  return std::max(kEpsilonBytes, kRelativeEpsilon * totalBytes);
}
}  // namespace

Link::Link(Simulator& sim, const LinkConfig& config)
    : sim_(sim),
      bandwidth_(config.bandwidthBytesPerSec),
      sharing_(config.sharing),
      reference_(config.schedule == LinkSchedule::Reference) {
  if (!(config.bandwidthBytesPerSec > 0.0))
    throw std::invalid_argument("Link: bandwidth must be positive");
}

double Link::perTransferRate() const {
  if (suspended_ || active_.empty()) return 0.0;
  if (sharing_ == LinkSharing::Dedicated) return bandwidth_;
  return bandwidth_ / static_cast<double>(active_.size());
}

bool Link::finishesNow(double remainingBytes, double thresholdBytes,
                       double rate) const {
  if (remainingBytes <= thresholdBytes) return true;
  // Late in a long run the byte residue left by rounding `now + delay` is
  // about rate * ulp(now), which can exceed the byte threshold for small
  // transfers; rescheduling it would fire again at now, forever.
  const double now = sim_.now();
  return rate > 0.0 && now + remainingBytes / rate <= now;
}

Link::TransferId Link::startTransfer(Bytes size, CompletionHandler onComplete) {
  if (size.value() < 0.0)
    throw std::invalid_argument("Link::startTransfer: negative size");
  if (!onComplete)
    throw std::invalid_argument("Link::startTransfer: empty completion handler");
  if (reference_)
    accrueProgress();
  else
    advanceVirtualTime();
  const TransferId id = nextId_++;
  const double bytes = size.value();
  const double finishV = virtualBytes_ + bytes;
  active_.emplace(
      id, Transfer{bytes, bytes, finishV, sim_.now(), std::move(onComplete)});
  if (!reference_) finishHeap_.push({finishV, id});
  if (observer_ && observer_->accepts(obs::EventKind::TransferStarted))
    observer_->onEvent(
        obs::Event{sim_.now(), obs::TransferStarted{id, bytes, active_.size()}});
  reschedule();
  return id;
}

void Link::suspend() {
  if (suspended_) return;
  if (reference_)
    accrueProgress();
  else
    advanceVirtualTime();
  suspended_ = true;
  if (observer_)
    observer_->onEvent(obs::Event{sim_.now(), obs::LinkSuspended{}});
  reschedule();
}

void Link::resume() {
  if (!suspended_) return;
  // No progress accrued while down; just restart the clock from now.
  lastUpdate_ = sim_.now();
  suspended_ = false;
  if (observer_)
    observer_->onEvent(obs::Event{sim_.now(), obs::LinkResumed{}});
  reschedule();
}

void Link::emitShareChange(double rate) {
  if (observer_ && rate != lastEmittedRate_ &&
      observer_->accepts(obs::EventKind::LinkShareChanged)) {
    observer_->onEvent(
        obs::Event{sim_.now(), obs::LinkShareChanged{active_.size(), rate}});
    lastEmittedRate_ = rate;
  }
}

void Link::onLinkEvent() {
  pendingEvent_ = kInvalidEvent;
  if (reference_) {
    accrueProgress();
    completeFinished();
  } else {
    advanceVirtualTime();
    completeFinishedIncremental();
  }
  reschedule();
}

// -- Reference scheduler -----------------------------------------------------

void Link::accrueProgress() {
  const double now = sim_.now();
  const double rate = perTransferRate();
  if (rate > 0.0 && now > lastUpdate_) {
    const double credit = rate * (now - lastUpdate_);
    for (auto& [id, t] : active_) t.remainingBytes -= credit;
    if (observer_ && observer_->accepts(obs::EventKind::TransferProgress))
      for (const auto& [id, t] : active_)
        observer_->onEvent(
            obs::Event{now, obs::TransferProgress{id, t.remainingBytes}});
  }
  lastUpdate_ = now;
}

void Link::completeFinished() {
  // Collect handlers first: a completion handler may start new transfers on
  // this link, which mutates active_.  The rate is the one the completion
  // event was scheduled with, fixed before any transfer leaves.
  const double rate = perTransferRate();
  std::vector<CompletionHandler> done;
  for (auto it = active_.begin(); it != active_.end();) {
    if (finishesNow(it->second.remainingBytes,
                    completionThreshold(it->second.totalBytes), rate)) {
      completedBytes_ += it->second.totalBytes;
      if (observer_ && observer_->accepts(obs::EventKind::TransferFinished))
        observer_->onEvent(obs::Event{
            sim_.now(),
            obs::TransferFinished{it->first, it->second.totalBytes,
                                  sim_.now() - it->second.startTime}});
      done.push_back(std::move(it->second.onComplete));
      it = active_.erase(it);
      ++completedCount_;
    } else {
      ++it;
    }
  }
  for (auto& handler : done) handler();
}

// -- Incremental scheduler ---------------------------------------------------

void Link::advanceVirtualTime() {
  const double now = sim_.now();
  MCSIM_EXPECTS(now >= lastUpdate_, "link virtual clock ran backwards: now=",
                now, " lastUpdate=", lastUpdate_);
  const double rate = perTransferRate();
  if (rate > 0.0 && now > lastUpdate_) {
    virtualBytes_ += rate * (now - lastUpdate_);
    if (observer_ && observer_->accepts(obs::EventKind::TransferProgress))
      for (const auto& [id, t] : active_)
        observer_->onEvent(
            obs::Event{now, obs::TransferProgress{id, t.finishV - virtualBytes_}});
  }
  lastUpdate_ = now;
}

bool Link::virtuallyComplete(const Transfer& t) const {
  // The virtual clock accumulates every byte the link ever carried, so its
  // rounding error is relative to virtualBytes_, not to the transfer size;
  // fold it into the threshold so a finished transfer is never stranded by
  // ulp-level residue on a long run.
  const double threshold = std::max(completionThreshold(t.totalBytes),
                                    kRelativeEpsilon * virtualBytes_);
  return finishesNow(t.finishV - virtualBytes_, threshold, perTransferRate());
}

void Link::completeFinishedIncremental() {
  // Pop every finished transfer off the (finishV, id) heap, then fire the
  // handlers in transfer-id order — the order the reference scheduler's
  // id-ordered map scan produces.
  std::vector<TransferId> doneIds;
  while (!finishHeap_.empty()) {
    const auto it = active_.find(finishHeap_.top().second);
    MCSIM_ASSERT(it != active_.end(), "finish heap holds transfer ",
                 finishHeap_.top().second, " with no active record");
    if (!virtuallyComplete(it->second)) break;
    doneIds.push_back(it->first);
    finishHeap_.pop();
  }
  if (doneIds.empty()) return;
  std::sort(doneIds.begin(), doneIds.end());
  std::vector<CompletionHandler> done;
  done.reserve(doneIds.size());
  for (const TransferId id : doneIds) {
    const auto it = active_.find(id);
    completedBytes_ += it->second.totalBytes;
    if (observer_ && observer_->accepts(obs::EventKind::TransferFinished))
      observer_->onEvent(obs::Event{
          sim_.now(), obs::TransferFinished{id, it->second.totalBytes,
                                            sim_.now() - it->second.startTime}});
    done.push_back(std::move(it->second.onComplete));
    active_.erase(it);
    ++completedCount_;
  }
  for (auto& handler : done) handler();
}

// -- Shared rescheduling -----------------------------------------------------

void Link::reschedule() {
  if (pendingEvent_ != kInvalidEvent) {
    sim_.cancel(pendingEvent_);
    pendingEvent_ = kInvalidEvent;
  }
  if (suspended_) return;
  if (active_.empty()) {
    // Idle link: rewind the virtual clock so precision never degrades over
    // arbitrarily long runs (the heap is empty whenever active_ is).
    virtualBytes_ = 0.0;
    return;
  }

  const double rate = perTransferRate();
  double delay = 0.0;
  if (reference_) {
    // Under fair share all transfers progress at the same rate, so the next
    // completion is the one with the least remaining bytes.  Under dedicated
    // the same selection applies (equal rates again).
    double minRemaining = std::numeric_limits<double>::infinity();
    bool anyComplete = false;
    for (const auto& [id, t] : active_) {
      minRemaining = std::min(minRemaining, t.remainingBytes);
      anyComplete = anyComplete ||
                    finishesNow(t.remainingBytes,
                                completionThreshold(t.totalBytes), rate);
    }
    emitShareChange(rate);
    delay = anyComplete ? 0.0 : minRemaining / rate;
  } else {
    // The heap top is the least-remaining transfer: remaining bytes are
    // finishV - V for every transfer, so finishV order is remaining order.
    emitShareChange(rate);
    const Transfer& top = active_.find(finishHeap_.top().second)->second;
    delay = virtuallyComplete(top)
                ? 0.0
                : (top.finishV - virtualBytes_) / rate;
  }

  MCSIM_ENSURES(delay >= 0.0, "negative reschedule delay ", delay);
  pendingEvent_ = sim_.scheduleAfter(delay, [this] { onLinkEvent(); });
}

}  // namespace mcsim::sim
