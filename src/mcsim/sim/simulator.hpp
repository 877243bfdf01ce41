// Discrete-event simulation core — the GridSim substitute.
//
// A single-threaded, deterministic event calendar: callbacks scheduled at
// absolute times execute in (time, insertion-order) order, so two events at
// the same timestamp run FIFO.  Determinism is a hard requirement — every
// experiment in the paper is a point comparison between runs, so replaying a
// configuration must reproduce costs bit-for-bit.
//
// Event records live in a per-run arena with a freelist, callbacks are
// stored inline (EventFn small-buffer storage, no per-event heap allocation
// for captures up to kInlineBytes), and the pending set is an index-tracked
// binary heap: every slot remembers its heap position, so cancel() removes
// the event in place in O(log n) instead of leaving a tombstone.  Event ids
// are sequential and map to slots through a flat vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mcsim::obs {
class Sink;
}

namespace mcsim::sim {

using EventId = std::uint64_t;

/// Sentinel returned by schedule() never equals this.
inline constexpr EventId kInvalidEvent = 0;

/// Move-only type-erased callable with inline small-buffer storage sized for
/// the engine's largest event captures.  Replaces std::function on the
/// schedule hot path: a capture up to kInlineBytes lives inside the event's
/// arena slot instead of in a per-event heap allocation.
class EventFn {
 public:
  /// Inline capture budget.  The engine's fattest lambdas capture
  /// [this, task, file, key, size] ≈ 40 bytes; a std::function<void()> is 32.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    // mcsim-lint: allow(sim-std-function) — compile-time detection of the
    // legacy callable type so empty handlers convert to empty EventFns.
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      if (!f) return;  // wrap an empty std::function as an empty EventFn
    }
    constexpr bool fitsInline = sizeof(D) <= kInlineBytes &&
                                alignof(D) <= alignof(std::max_align_t) &&
                                std::is_nothrow_move_constructible_v<D>;
    if constexpr (fitsInline) {
      ::new (storage()) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      // mcsim-lint: allow(sim-heap-alloc) — fallback for captures over
      // kInlineBytes; the engine's event lambdas all fit inline.
      ::new (storage()) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { moveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage()); }

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable from src storage into dst storage and
    /// destroy the src copy.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
  };

  template <typename D>
  static void inlineInvoke(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void inlineRelocate(void* src, void* dst) {
    ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }
  template <typename D>
  static void inlineDestroy(void* p) {
    static_cast<D*>(p)->~D();
  }

  template <typename D>
  static D*& heapPtr(void* p) {
    return *static_cast<D**>(p);
  }
  template <typename D>
  static void heapInvoke(void* p) {
    (*heapPtr<D>(p))();
  }
  template <typename D>
  static void heapRelocate(void* src, void* dst) {
    ::new (dst) D*(heapPtr<D>(src));
  }
  template <typename D>
  static void heapDestroy(void* p) {
    delete heapPtr<D>(p);
  }

  template <typename D>
  static constexpr Ops kInlineOps{&inlineInvoke<D>, &inlineRelocate<D>,
                                  &inlineDestroy<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&heapInvoke<D>, &heapRelocate<D>,
                                &heapDestroy<D>};

  void* storage() noexcept { return buf_; }

  void moveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->relocate(other.storage(), storage());
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using Callback = EventFn;

/// Designated-initializer construction options (PR 3 config-struct style).
struct SimulatorOptions {
  /// Pre-reserve arena capacity for this many concurrently pending events.
  std::size_t reserveEvents = 0;
};

class Simulator {
 public:
  Simulator() : Simulator(SimulatorOptions{}) {}
  explicit Simulator(const SimulatorOptions& options);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.  Starts at 0.
  double now() const { return now_; }

  /// Schedule `cb` at absolute time `time` (>= now(); throws otherwise).
  /// Returns an id usable with cancel().
  EventId schedule(double time, Callback cb);

  /// Schedule `cb` `delay` seconds from now (delay >= 0).
  EventId scheduleAfter(double delay, Callback cb);

  /// Cancel a pending event.  Returns true if the event existed and had not
  /// yet fired; false otherwise (already fired, already cancelled, unknown).
  /// O(log n) in-place removal.
  bool cancel(EventId id);

  /// Run until the calendar is empty.
  void run();

  /// Run events with time <= `horizon`; afterwards now() == horizon if any
  /// events remain beyond it, else the time of the last executed event.
  void runUntil(double horizon);

  /// True if any events remain pending.
  bool hasPending() const { return !heap_.empty(); }

  std::size_t processedEvents() const { return processed_; }

  /// Install a telemetry sink observing the calendar (scheduled / fired /
  /// cancelled events); nullptr disables.  Disabled observation costs one
  /// pointer test per operation.
  /// Install the event observer.  The accepts() verdict for the calendar
  /// kinds (SimEventScheduled/Fired/Cancelled — the hottest emissions in the
  /// simulator) is cached here; accepts() is contractually stable for a run.
  void setObserver(obs::Sink* observer);
  obs::Sink* observer() const { return observer_; }

 private:
  /// One arena slot.  Free slots chain through `heapPos` (freelist).
  struct Slot {
    double time = 0.0;
    std::uint64_t sequence = 0;  ///< Insertion order; breaks time ties FIFO.
    EventId id = kInvalidEvent;
    std::uint32_t heapPos = 0;
    EventFn callback;
  };
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t slot);
  bool before(std::uint32_t a, std::uint32_t b) const;
  std::size_t siftUp(std::size_t pos);
  void siftDown(std::size_t pos);
  void removeFromHeap(std::size_t pos);
  void step();

  std::vector<Slot> slots_;            ///< Arena; index = slot handle.
  std::vector<std::uint32_t> heap_;    ///< Binary heap of slot handles.
  std::uint32_t freeHead_ = kNpos;     ///< Freelist head into slots_.
  std::vector<std::uint32_t> idSlot_;  ///< EventId -> slot, kNpos once done.

  double now_ = 0.0;
  std::uint64_t nextSequence_ = 0;
  EventId nextId_ = 1;
  std::size_t processed_ = 0;
  obs::Sink* observer_ = nullptr;
  bool emitScheduled_ = false;  ///< Cached observer_->accepts(SimEventScheduled).
  bool emitCancelled_ = false;  ///< Cached observer_->accepts(SimEventCancelled).
  bool emitFired_ = false;      ///< Cached observer_->accepts(SimEventFired).
};

}  // namespace mcsim::sim
