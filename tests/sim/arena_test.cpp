// Arena-calendar-specific coverage: in-place cancellation, slot reuse,
// FIFO tie-breaking under heavy churn, and equivalence against a plain
// oracle calendar (below), whose fire trace and scheduled/fired/cancelled
// stream the arena must reproduce exactly for any schedule/cancel workload.
#include "mcsim/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::sim {
namespace {

/// One calendar operation as the Simulator reports it to its observer:
/// kind 's'cheduled (with the fire time), 'f'ired or 'c'ancelled, at `now`.
struct CalendarRecord {
  char kind;
  double now;
  EventId id;
  double fireAt;
  bool operator==(const CalendarRecord&) const = default;
};

/// Test oracle: the calendar contract in its plainest form.  Pending events
/// sit in a std::multimap keyed by (time, schedule sequence); cancel erases
/// by id; every operation appends the record the Simulator would emit.
class OracleCalendar {
 public:
  double now() const { return now_; }
  std::size_t processedEvents() const { return processed_; }
  const std::vector<CalendarRecord>& stream() const { return stream_; }

  EventId schedule(double time, std::function<void()> fn) {
    const EventId id = nextId_++;
    byId_[id] = pending_.emplace(Key{time, sequence_++},
                                 Pending{id, std::move(fn)});
    stream_.push_back({'s', now_, id, time});
    return id;
  }
  bool cancel(EventId id) {
    const auto it = byId_.find(id);
    if (it == byId_.end()) return false;
    pending_.erase(it->second);
    byId_.erase(it);
    stream_.push_back({'c', now_, id, 0.0});
    return true;
  }
  void runUntil(double horizon) {
    while (!pending_.empty()) {
      if (pending_.begin()->first.first > horizon) {
        now_ = horizon;
        return;
      }
      auto node = pending_.extract(pending_.begin());
      now_ = node.key().first;
      byId_.erase(node.mapped().id);
      ++processed_;
      stream_.push_back({'f', now_, node.mapped().id, 0.0});
      node.mapped().fn();
    }
  }
  void run() { runUntil(std::numeric_limits<double>::infinity()); }

 private:
  using Key = std::pair<double, std::uint64_t>;
  struct Pending {
    EventId id;
    std::function<void()> fn;
  };
  std::multimap<Key, Pending> pending_;
  std::map<EventId, std::multimap<Key, Pending>::iterator> byId_;
  std::vector<CalendarRecord> stream_;
  double now_ = 0.0;
  std::uint64_t sequence_ = 0;
  EventId nextId_ = 1;
  std::size_t processed_ = 0;
};

/// The calendar records in a Simulator's observed event stream.
std::vector<CalendarRecord> calendarRecords(
    const std::vector<obs::Event>& events) {
  std::vector<CalendarRecord> out;
  for (const obs::Event& e : events) {
    if (const auto* s = std::get_if<obs::SimEventScheduled>(&e.payload))
      out.push_back({'s', e.time, s->event, s->fireAt});
    else if (const auto* f = std::get_if<obs::SimEventFired>(&e.payload))
      out.push_back({'f', e.time, f->event, 0.0});
    else if (const auto* c = std::get_if<obs::SimEventCancelled>(&e.payload))
      out.push_back({'c', e.time, c->event, 0.0});
  }
  return out;
}

TEST(ArenaCalendar, CancelRemovesInPlace) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.schedule(1.0, [&] { fired.push_back(1); });
  const EventId doomed = simulator.schedule(2.0, [&] { fired.push_back(2); });
  simulator.schedule(3.0, [&] { fired.push_back(3); });

  EXPECT_TRUE(simulator.cancel(doomed));
  EXPECT_FALSE(simulator.cancel(doomed));  // already cancelled
  simulator.run();

  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  // A cancelled event never fires, so it is not counted as processed.
  EXPECT_EQ(simulator.processedEvents(), 2u);
}

TEST(ArenaCalendar, SlotsAreReusedAcrossGenerations) {
  // Pending events never exceed 2, so the arena should stay tiny even
  // though thousands of events pass through; ids keep growing (they are
  // never recycled) while slots are.
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5000) simulator.scheduleAfter(1.0, chain);
  };
  simulator.schedule(0.0, chain);
  simulator.run();
  EXPECT_EQ(fired, 5000);
  EXPECT_EQ(simulator.processedEvents(), 5000u);
  EXPECT_DOUBLE_EQ(simulator.now(), 4999.0);
}

TEST(ArenaCalendar, SameTimeEventsFireInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i)
    simulator.schedule(7.5, [&order, i] { order.push_back(i); });
  simulator.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ArenaCalendar, FifoOrderSurvivesInterleavedCancellation) {
  // Cancel every third same-time event: the survivors must still fire in
  // their original schedule order, even though heap removals move slots.
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i)
    ids.push_back(simulator.schedule(1.0, [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 30; i += 3) EXPECT_TRUE(simulator.cancel(ids[i]));
  simulator.run();
  std::vector<int> expected;
  for (int i = 0; i < 30; ++i)
    if (i % 3 != 0) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(ArenaCalendar, CancelRejectsForeignAndFiredIds) {
  Simulator simulator;
  EXPECT_FALSE(simulator.cancel(kInvalidEvent));
  EXPECT_FALSE(simulator.cancel(EventId{999999}));  // never issued
  const EventId id = simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_FALSE(simulator.cancel(id));  // already fired
}

/// Deterministic mixed workload: schedules bursts at clustered times,
/// cancels a pseudo-random third of pending events, reschedules from
/// callbacks.  Returns the (time, sequence) trace of fired events.
template <class Calendar>
std::vector<std::pair<double, int>> churn(Calendar& simulator) {
  std::vector<std::pair<double, int>> trace;
  Rng rng(42);
  std::vector<EventId> pending;
  int counter = 0;
  for (int burst = 0; burst < 20; ++burst) {
    const double base = burst * 10.0;
    for (int i = 0; i < 50; ++i) {
      const double t = base + rng.uniformInt(0, 9);
      const int tag = counter++;
      pending.push_back(simulator.schedule(t, [&trace, &simulator, tag] {
        trace.emplace_back(simulator.now(), tag);
      }));
    }
    for (std::size_t k = 0; k < pending.size(); k += 3)
      simulator.cancel(pending[k]);
    simulator.runUntil(base + 5.0);
  }
  simulator.run();
  return trace;
}

TEST(ArenaCalendar, MatchesReferenceCalendarUnderChurn) {
  Simulator arena;
  OracleCalendar reference;
  const auto arenaTrace = churn(arena);
  const auto referenceTrace = churn(reference);
  ASSERT_FALSE(referenceTrace.empty());
  EXPECT_EQ(arenaTrace, referenceTrace);
  EXPECT_EQ(arena.processedEvents(), reference.processedEvents());
  EXPECT_EQ(arena.now(), reference.now());
}

TEST(ArenaCalendar, TelemetryStreamMatchesReference) {
  obs::CollectingSink sink;
  Simulator arena;
  arena.setObserver(&sink);
  churn(arena);
  OracleCalendar reference;
  churn(reference);
  const std::vector<CalendarRecord> arenaRecords =
      calendarRecords(sink.events());
  ASSERT_EQ(arenaRecords.size(), sink.size());  // only calendar kinds
  ASSERT_EQ(arenaRecords.size(), reference.stream().size());
  for (std::size_t i = 0; i < arenaRecords.size(); ++i)
    ASSERT_EQ(arenaRecords[i], reference.stream()[i]) << "record " << i;
}

TEST(EventFnSbo, LargeCallablesFallBackToHeapCorrectly) {
  // A callable bigger than the inline buffer must still move and fire.
  Simulator simulator;
  struct Big {
    double pad[16];
    std::vector<int>* out;
    void operator()() const { out->push_back(static_cast<int>(pad[0])); }
  };
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    Big big{};
    big.pad[0] = i;
    big.out = &fired;
    simulator.schedule(static_cast<double>(i), big);
  }
  simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace mcsim::sim
