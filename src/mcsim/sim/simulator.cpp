#include "mcsim/sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mcsim/obs/sink.hpp"
#include "mcsim/util/contract.hpp"

namespace mcsim::sim {

Simulator::Simulator(const SimulatorOptions& options) {
  if (options.reserveEvents > 0) {
    slots_.reserve(options.reserveEvents);
    heap_.reserve(options.reserveEvents);
    idSlot_.reserve(options.reserveEvents + 1);
  }
  idSlot_.push_back(kNpos);  // index 0 = kInvalidEvent
}

void Simulator::setObserver(obs::Sink* observer) {
  observer_ = observer;
  emitScheduled_ =
      observer != nullptr && observer->accepts(obs::EventKind::SimEventScheduled);
  emitCancelled_ =
      observer != nullptr && observer->accepts(obs::EventKind::SimEventCancelled);
  emitFired_ =
      observer != nullptr && observer->accepts(obs::EventKind::SimEventFired);
}

// -- arena helpers -----------------------------------------------------------

std::uint32_t Simulator::allocSlot() {
  if (freeHead_ != kNpos) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].heapPos;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::freeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback.reset();
  s.id = kInvalidEvent;
  s.heapPos = freeHead_;
  freeHead_ = slot;
}

bool Simulator::before(std::uint32_t a, std::uint32_t b) const {
  const Slot& sa = slots_[a];
  const Slot& sb = slots_[b];
  if (sa.time != sb.time) return sa.time < sb.time;
  return sa.sequence < sb.sequence;
}

std::size_t Simulator::siftUp(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heapPos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].heapPos = static_cast<std::uint32_t>(pos);
  return pos;
}

void Simulator::siftDown(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    heap_[pos] = heap_[child];
    slots_[heap_[pos]].heapPos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = moving;
  slots_[moving].heapPos = static_cast<std::uint32_t>(pos);
}

void Simulator::removeFromHeap(std::size_t pos) {
  MCSIM_EXPECTS(pos < heap_.size(), "heap position ", pos, " out of range (",
                heap_.size(), " pending)");
  MCSIM_EXPECTS(slots_[heap_[pos]].heapPos == pos,
                "slot/heap index mismatch at position ", pos);
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  slots_[heap_[pos]].heapPos = static_cast<std::uint32_t>(pos);
  heap_.pop_back();
  // The filler came from the bottom: it may need to move either direction.
  if (siftUp(pos) == pos) siftDown(pos);
}

// -- public API --------------------------------------------------------------

EventId Simulator::schedule(double time, Callback cb) {
  if (time < now_)
    throw std::invalid_argument("Simulator::schedule: time " +
                                std::to_string(time) + " is in the past (now " +
                                std::to_string(now_) + ")");
  if (!cb) throw std::invalid_argument("Simulator::schedule: empty callback");
  const EventId id = nextId_++;
  const std::uint32_t s = allocSlot();
  Slot& slot = slots_[s];
  slot.time = time;
  slot.sequence = nextSequence_++;
  slot.id = id;
  slot.callback = std::move(cb);
  slot.heapPos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(s);
  siftUp(heap_.size() - 1);
  idSlot_.push_back(s);
  if (emitScheduled_)
    observer_->onEvent(obs::Event{now_, obs::SimEventScheduled{id, time}});
  return id;
}

EventId Simulator::scheduleAfter(double delay, Callback cb) {
  if (delay < 0.0)
    throw std::invalid_argument("Simulator::scheduleAfter: negative delay");
  return schedule(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  // Only a still-pending event can be cancelled; fired or unknown ids are
  // rejected so double-cancel and cancel-after-fire are harmless no-ops.
  if (id == kInvalidEvent || id >= nextId_) return false;
  const std::uint32_t s = idSlot_[static_cast<std::size_t>(id)];
  if (s == kNpos) return false;
  MCSIM_ASSERT(heap_[slots_[s].heapPos] == s, "cancel(", id,
               "): slot ", s, " not found at its recorded heap position");
  removeFromHeap(slots_[s].heapPos);
  idSlot_[static_cast<std::size_t>(id)] = kNpos;
  freeSlot(s);
  if (emitCancelled_)
    observer_->onEvent(obs::Event{now_, obs::SimEventCancelled{id}});
  return true;
}

void Simulator::step() {
  const std::uint32_t s = heap_[0];
  Slot& slot = slots_[s];
  MCSIM_ASSERT(slot.heapPos == 0, "heap top slot ", s,
               " believes it sits at position ", slot.heapPos);
  MCSIM_ASSERT(slot.time >= now_, "calendar went backwards: event at ",
               slot.time, " fired with now=", now_);
  now_ = slot.time;
  ++processed_;
  const EventId id = slot.id;
  // Move the callback out before releasing the slot: the callback may
  // schedule new events, growing or reusing the arena underneath us.
  EventFn fn = std::move(slot.callback);
  removeFromHeap(0);
  idSlot_[static_cast<std::size_t>(id)] = kNpos;
  freeSlot(s);
  if (emitFired_) observer_->onEvent(obs::Event{now_, obs::SimEventFired{id}});
  fn();
}

void Simulator::run() {
  while (!heap_.empty()) step();
}

void Simulator::runUntil(double horizon) {
  while (!heap_.empty()) {
    if (slots_[heap_[0]].time > horizon) {
      now_ = horizon;
      return;
    }
    step();
  }
}

}  // namespace mcsim::sim
