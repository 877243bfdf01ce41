#include "mcsim/obs/sink.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mcsim::obs {
namespace {

Event taskReady(double t, std::uint32_t id) { return Event{t, TaskReady{id}}; }

/// Records the kinds it receives; accepts only the kinds it is given.
class RecordingSink final : public Sink {
 public:
  explicit RecordingSink(std::vector<EventKind> wanted = {})
      : wanted_(std::move(wanted)) {}

  void onEvent(const Event& event) override { seen.push_back(kind(event)); }
  bool accepts(EventKind k) const override {
    if (wanted_.empty()) return true;
    for (EventKind w : wanted_)
      if (w == k) return true;
    return false;
  }

  std::vector<EventKind> seen;

 private:
  std::vector<EventKind> wanted_;
};

TEST(Event, KindTracksPayloadAlternative) {
  EXPECT_EQ(kind(Event{0.0, SimEventScheduled{1, 2.0}}),
            EventKind::SimEventScheduled);
  EXPECT_EQ(kind(taskReady(0.0, 3)), EventKind::TaskReady);
  EXPECT_EQ(kind(Event{0.0, LogEmitted{1, "x"}}), EventKind::LogEmitted);
}

TEST(Event, NamesAreStableSnakeCase) {
  EXPECT_STREQ(eventName(EventKind::SimEventScheduled), "sim_event_scheduled");
  EXPECT_STREQ(eventName(EventKind::TransferFinished), "transfer_finished");
  EXPECT_STREQ(eventName(EventKind::BillingLineItem), "billing_line_item");
  EXPECT_STREQ(eventName(EventKind::LogEmitted), "log");
}

TEST(Event, ResourceNames) {
  EXPECT_STREQ(resourceName(Resource::Cpu), "cpu");
  EXPECT_STREQ(resourceName(Resource::Storage), "storage");
  EXPECT_STREQ(resourceName(Resource::TransferIn), "transfer_in");
  EXPECT_STREQ(resourceName(Resource::TransferOut), "transfer_out");
}

TEST(NullSink, AcceptsNothing) {
  NullSink sink;
  EXPECT_FALSE(sink.accepts(EventKind::TaskReady));
  EXPECT_FALSE(sink.accepts(EventKind::TransferProgress));
  sink.onEvent(taskReady(0.0, 1));  // still safe to call
}

TEST(FanOutSink, ForwardsToAcceptingChildrenOnly) {
  RecordingSink wantsTasks({EventKind::TaskReady});
  RecordingSink wantsAll;
  FanOutSink fan({&wantsTasks, &wantsAll});

  fan.onEvent(taskReady(0.0, 1));
  fan.onEvent(Event{0.0, TransferStarted{1, 10.0, 1}});

  ASSERT_EQ(wantsTasks.seen.size(), 1u);
  EXPECT_EQ(wantsTasks.seen[0], EventKind::TaskReady);
  EXPECT_EQ(wantsAll.seen.size(), 2u);
}

TEST(FanOutSink, AcceptsIsUnionOfChildren) {
  RecordingSink a({EventKind::TaskReady});
  RecordingSink b({EventKind::TransferProgress});
  FanOutSink fan;
  EXPECT_FALSE(fan.accepts(EventKind::TaskReady));  // no children yet
  fan.add(&a);
  fan.add(&b);
  fan.add(nullptr);  // ignored
  EXPECT_EQ(fan.childCount(), 2u);
  EXPECT_TRUE(fan.accepts(EventKind::TaskReady));
  EXPECT_TRUE(fan.accepts(EventKind::TransferProgress));
  EXPECT_FALSE(fan.accepts(EventKind::StorageFilePut));
}

TEST(FilterSink, ForwardsOnlyItsKindsThatTheInnerSinkAccepts) {
  RecordingSink inner({EventKind::TaskReady, EventKind::TaskStarted});
  FilterSink filter(inner, EventKindSet{}
                               .with(EventKind::TaskReady)
                               .with(EventKind::TransferProgress));
  EXPECT_TRUE(filter.accepts(EventKind::TaskReady));
  EXPECT_FALSE(filter.accepts(EventKind::TaskStarted));       // not in kinds
  EXPECT_FALSE(filter.accepts(EventKind::TransferProgress));  // inner says no
  filter.onEvent(taskReady(0.0, 1));
  filter.onEvent(Event{0.0, TaskStarted{1}});
  ASSERT_EQ(inner.seen.size(), 1u);
  EXPECT_EQ(inner.seen[0], EventKind::TaskReady);
}

TEST(AcceptedKinds, AsksEveryKindOnce) {
  RecordingSink narrow({EventKind::TaskReady, EventKind::PhaseProfile});
  EXPECT_EQ(acceptedKinds(narrow).bits(),
            EventKindSet{}
                .with(EventKind::TaskReady)
                .with(EventKind::PhaseProfile)
                .bits());
  EXPECT_TRUE(acceptedKinds(NullSink{}).empty());
  EXPECT_EQ(acceptedKinds(CollectingSink{}).bits(),
            (std::uint64_t{1} << kEventKindCount) - 1);
}

TEST(RingBufferSink, FillsThenOverwritesOldest) {
  RingBufferSink ring(3);
  for (std::uint32_t i = 0; i < 5; ++i) ring.onEvent(taskReady(i, i));

  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);

  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first: events 2, 3, 4 survive.
  EXPECT_EQ(std::get<TaskReady>(events[0].payload).task, 2u);
  EXPECT_EQ(std::get<TaskReady>(events[1].payload).task, 3u);
  EXPECT_EQ(std::get<TaskReady>(events[2].payload).task, 4u);
}

TEST(RingBufferSink, CountOfFiltersByPayloadType) {
  RingBufferSink ring(10);
  ring.onEvent(taskReady(0.0, 1));
  ring.onEvent(Event{1.0, TaskFinished{1, 5.0}});
  ring.onEvent(taskReady(2.0, 2));
  EXPECT_EQ(ring.countOf<TaskReady>(), 2u);
  EXPECT_EQ(ring.countOf<TaskFinished>(), 1u);
  EXPECT_EQ(ring.countOf<TransferStarted>(), 0u);
}

TEST(CollectingSink, BuffersEverythingInArrivalOrder) {
  CollectingSink sink;
  EXPECT_TRUE(sink.accepts(EventKind::TaskReady));
  for (std::uint32_t i = 0; i < 4; ++i) sink.onEvent(taskReady(i, i));
  ASSERT_EQ(sink.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(std::get<TaskReady>(sink.events()[i].payload).task, i);
}

TEST(CollectingSink, TakeDrainsTheBuffer) {
  CollectingSink sink;
  sink.onEvent(taskReady(0.0, 7));
  const std::vector<Event> taken = sink.take();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(std::get<TaskReady>(taken[0].payload).task, 7u);
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace mcsim::obs
