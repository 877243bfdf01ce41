#include "mcsim/obs/jsonl.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/common/json.hpp"

namespace mcsim::obs {
namespace {

std::string render(const Event& event) {
  std::ostringstream os;
  writeEventJson(os, event);
  return os.str();
}

TEST(EventJson, CarriesTimeAndTypeAndPayloadFields) {
  const test::JsonValue v =
      test::parseJson(render(Event{12.5, TransferFinished{7, 2048.0, 3.25}}));
  EXPECT_DOUBLE_EQ(v.at("t").asNumber(), 12.5);
  EXPECT_EQ(v.at("type").asString(), "transfer_finished");
  EXPECT_DOUBLE_EQ(v.at("transfer").asNumber(), 7.0);
  EXPECT_DOUBLE_EQ(v.at("bytes").asNumber(), 2048.0);
  EXPECT_DOUBLE_EQ(v.at("seconds").asNumber(), 3.25);
}

TEST(EventJson, NoTaskRendersAsNull) {
  const test::JsonValue v = test::parseJson(
      render(Event{0.0, StageInStarted{3, kNoTask, 1e6}}));
  EXPECT_EQ(v.at("type").asString(), "stage_in_started");
  EXPECT_TRUE(v.at("task").isNull());
  EXPECT_DOUBLE_EQ(v.at("file").asNumber(), 3.0);

  const test::JsonValue attributed = test::parseJson(
      render(Event{0.0, StageInStarted{3, 42, 1e6}}));
  EXPECT_DOUBLE_EQ(attributed.at("task").asNumber(), 42.0);
}

TEST(EventJson, BillingLineItemNamesItsResource) {
  const test::JsonValue v = test::parseJson(
      render(Event{5.0, BillingLineItem{Resource::Storage, 9, 1234.5}}));
  EXPECT_EQ(v.at("type").asString(), "billing_line_item");
  EXPECT_EQ(v.at("resource").asString(), "storage");
  EXPECT_DOUBLE_EQ(v.at("task").asNumber(), 9.0);
  EXPECT_DOUBLE_EQ(v.at("quantity").asNumber(), 1234.5);
}

TEST(EventJson, LogMessagesAreEscaped) {
  const test::JsonValue v = test::parseJson(render(
      Event{-1.0, LogEmitted{2, "said \"hi\"\nthen\tleft \\o/"}}));
  EXPECT_EQ(v.at("type").asString(), "log");
  EXPECT_EQ(v.at("level").asNumber(), 2.0);
  EXPECT_EQ(v.at("message").asString(), "said \"hi\"\nthen\tleft \\o/");
  EXPECT_DOUBLE_EQ(v.at("t").asNumber(), -1.0);
}

TEST(EventJson, EveryPayloadAlternativeSerializesToValidJson) {
  const std::vector<Event> one_of_each = {
      {0.0, SimEventScheduled{1, 2.0}},
      {0.0, SimEventFired{1}},
      {0.0, SimEventCancelled{1}},
      {0.0, TransferStarted{1, 10.0, 2}},
      {0.0, TransferProgress{1, 5.0}},
      {0.0, TransferFinished{1, 10.0, 1.0}},
      {0.0, LinkShareChanged{2, 625000.0}},
      {0.0, LinkSuspended{}},
      {0.0, LinkResumed{}},
      {0.0, ProcessorClaimed{1, 4, 0}},
      {0.0, ProcessorReleased{0, 4, 0}},
      {0.0, StorageFilePut{1, 10.0, 10.0, 1}},
      {0.0, StorageFileErased{1, 10.0, 0.0, 0}},
      {0.0, StorageSampled{0.0, 0}},
      {0.0, RunStarted{7, 8, 2}},
      {0.0, RunFinished{100.0}},
      {0.0, TaskReady{1}},
      {0.0, TaskStarted{1}},
      {0.0, TaskExecStarted{1}},
      {0.0, TaskFinished{1, 10.0}},
      {0.0, TaskRetried{1}},
      {0.0, TaskBlocked{1}},
      {0.0, StageInStarted{1, kNoTask, 10.0}},
      {0.0, StageInFinished{1, kNoTask, 10.0}},
      {0.0, StageOutStarted{1, 2, 10.0}},
      {0.0, StageOutFinished{1, 2, 10.0}},
      {0.0, FileCleanupDeleted{1, 2, 10.0}},
      {0.0, BillingLineItem{Resource::Cpu, 1, 10.0}},
      {-1.0, LogEmitted{0, "x"}},
      {0.0, ProcessorCrashed{1, 4.5}},
      {0.0, TaskRetryScheduled{1, 2, 30.0}},
      {0.0, TaskFailed{1, 3}},
      {0.0, TaskAbandoned{2, 1}},
      {0.0, StorageOutageStarted{}},
      {0.0, StorageOutageEnded{}},
      {0.0, DeadlineExceeded{5}},
      {0.0, ScenarioCacheStats{3, 1, 4, 2, 4096, 0.75}},
      {0.0, PhaseProfile{2, 0.125}},
  };
  ASSERT_EQ(one_of_each.size(), kEventKindCount);
  for (const Event& e : one_of_each) {
    const std::string line = render(e);
    const test::JsonValue v = test::parseJson(line);
    EXPECT_EQ(v.at("type").asString(), eventName(kind(e))) << line;
  }
}

TEST(JsonlSink, OneLinePerEvent) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.onEvent(Event{0.0, TaskReady{1}});
  sink.onEvent(Event{1.0, TaskStarted{1}});
  EXPECT_EQ(sink.written(), 2u);

  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    test::parseJson(line);  // throws on malformed output
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

}  // namespace
}  // namespace mcsim::obs
