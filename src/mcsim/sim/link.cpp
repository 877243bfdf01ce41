#include "mcsim/sim/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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
      sharing_(config.sharing) {
  if (!(config.bandwidthBytesPerSec > 0.0))
    throw std::invalid_argument("Link: bandwidth must be positive");
}

double Link::perTransferRate() const {
  if (suspended_ || activeCount_ == 0) return 0.0;
  if (sharing_ == LinkSharing::Dedicated) return bandwidth_;
  return bandwidth_ / static_cast<double>(activeCount_);
}

std::uint32_t Link::allocSlot() {
  if (freeHead_ != kNoSlot) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].nextFree;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Link::freeSlot(std::uint32_t slot) {
  Transfer& t = slots_[slot];
  t.id = kNoTransfer;
  t.nextFree = freeHead_;
  freeHead_ = slot;
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
  advanceVirtualTime();
  const TransferId id = nextId_++;
  const double bytes = size.value();
  const double finishV = virtualBytes_ + bytes;
  const std::uint32_t slot = allocSlot();
  Transfer& t = slots_[slot];
  t.id = id;
  t.totalBytes = bytes;
  t.finishV = finishV;
  t.startTime = sim_.now();
  t.onComplete = std::move(onComplete);
  ++activeCount_;
  finishHeap_.push({finishV, id, slot});
  if (observer_ && observer_->accepts(obs::EventKind::TransferStarted))
    observer_->onEvent(
        obs::Event{sim_.now(), obs::TransferStarted{id, bytes, activeCount_}});
  reschedule();
  return id;
}

void Link::suspend() {
  if (suspended_) return;
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
        obs::Event{sim_.now(), obs::LinkShareChanged{activeCount_, rate}});
    lastEmittedRate_ = rate;
  }
}

void Link::onLinkEvent() {
  pendingEvent_ = kInvalidEvent;
  advanceVirtualTime();
  completeFinished();
  reschedule();
}

void Link::advanceVirtualTime() {
  const double now = sim_.now();
  MCSIM_EXPECTS(now >= lastUpdate_, "link virtual clock ran backwards: now=",
                now, " lastUpdate=", lastUpdate_);
  const double rate = perTransferRate();
  if (rate > 0.0 && now > lastUpdate_) {
    virtualBytes_ += rate * (now - lastUpdate_);
    if (observer_ && observer_->accepts(obs::EventKind::TransferProgress))
      emitProgress();
  }
  lastUpdate_ = now;
}

void Link::emitProgress() {
  progress_.clear();
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].id != kNoTransfer) progress_.emplace_back(slots_[s].id, s);
  std::sort(progress_.begin(), progress_.end());
  for (const auto& [id, slot] : progress_)
    observer_->onEvent(obs::Event{
        sim_.now(),
        obs::TransferProgress{id, slots_[slot].finishV - virtualBytes_}});
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

void Link::completeFinished() {
  // Pop every finished transfer off the (finishV, id, slot) heap, then fire
  // the handlers in transfer-id order.  Handlers are moved out of their
  // slots before any fires: one may start a new transfer on this link,
  // which reuses a freed slot or grows the table.
  finished_.clear();
  while (!finishHeap_.empty()) {
    const Pending& top = finishHeap_.top();
    MCSIM_ASSERT(slots_[top.slot].id == top.id, "finish heap holds transfer ",
                 top.id, " but its slot holds ", slots_[top.slot].id);
    if (!virtuallyComplete(slots_[top.slot])) break;
    finished_.emplace_back(top.id, top.slot);
    finishHeap_.pop();
  }
  if (finished_.empty()) return;
  std::sort(finished_.begin(), finished_.end());
  firing_.clear();
  for (const auto& [id, slot] : finished_) {
    Transfer& t = slots_[slot];
    completedBytes_ += t.totalBytes;
    if (observer_ && observer_->accepts(obs::EventKind::TransferFinished))
      observer_->onEvent(obs::Event{
          sim_.now(),
          obs::TransferFinished{id, t.totalBytes, sim_.now() - t.startTime}});
    firing_.push_back(std::move(t.onComplete));
    freeSlot(slot);
    --activeCount_;
    ++completedCount_;
  }
  for (CompletionHandler& handler : firing_) handler();
  firing_.clear();
}

void Link::reschedule() {
  if (pendingEvent_ != kInvalidEvent) {
    sim_.cancel(pendingEvent_);
    pendingEvent_ = kInvalidEvent;
  }
  if (suspended_) return;
  if (activeCount_ == 0) {
    // Idle link: rewind the virtual clock so precision never degrades over
    // arbitrarily long runs (the heap is empty whenever the table is).
    virtualBytes_ = 0.0;
    return;
  }

  // The heap top is the least-remaining transfer: remaining bytes are
  // finishV - V for every transfer, so finishV order is remaining order.
  const double rate = perTransferRate();
  emitShareChange(rate);
  const Transfer& top = slots_[finishHeap_.top().slot];
  const double delay =
      virtuallyComplete(top) ? 0.0 : (top.finishV - virtualBytes_) / rate;

  MCSIM_ENSURES(delay >= 0.0, "negative reschedule delay ", delay);
  pendingEvent_ = sim_.scheduleAfter(delay, [this] { onLinkEvent(); });
}

}  // namespace mcsim::sim
