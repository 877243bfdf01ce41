#include "mcsim/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::obs {
namespace {

std::string exposition(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.writePrometheus(os);
  return os.str();
}

TEST(Histogram, BucketsValuesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive)
  h.observe(7.0);    // <= 10
  h.observe(1000.0); // +Inf
  ASSERT_EQ(h.bucketCounts().size(), 4u);
  EXPECT_EQ(h.bucketCounts()[0], 2u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 0u);
  EXPECT_EQ(h.bucketCounts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1008.5 / 4.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, FindOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("mcsim_x_total", "x");
  Counter& b = reg.counter("mcsim_x_total", "x");
  EXPECT_EQ(&a, &b);
  a.increment(2.0);
  EXPECT_DOUBLE_EQ(b.value(), 2.0);
  EXPECT_EQ(reg.instrumentCount(), 1u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("mcsim_x_total", "x");
  EXPECT_THROW(reg.gauge("mcsim_x_total", "x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("mcsim_x_total", "x", {1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("mcsim_runs_total", "Completed runs").increment(3.0);
  reg.gauge("mcsim_depth", "Queue depth").set(7.0);
  Histogram& h = reg.histogram("mcsim_wait_seconds", "Wait times", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string out = os.str();

  EXPECT_NE(out.find("# HELP mcsim_runs_total Completed runs\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE mcsim_runs_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_runs_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE mcsim_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_depth 7\n"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == count.
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_sum 103.5\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_count 3\n"), std::string::npos);
}

TEST(MetricsSink, DerivesInstrumentsFromEvents) {
  MetricsRegistry reg;
  MetricsSink sink(reg);

  sink.onEvent(Event{0.0, SimEventScheduled{1, 5.0}});
  sink.onEvent(Event{0.0, TransferStarted{1, 2048.0, 1}});
  sink.onEvent(Event{2.0, TransferFinished{1, 2048.0, 2.0}});
  sink.onEvent(Event{2.0, TaskReady{7}});
  sink.onEvent(Event{5.0, TaskStarted{7}});   // waited 3 s
  sink.onEvent(Event{5.0, TaskExecStarted{7}});
  sink.onEvent(Event{15.0, TaskFinished{7, 10.0}});
  sink.onEvent(Event{15.0, StorageFilePut{9, 100.0, 100.0, 1}});
  sink.onEvent(Event{-1.0, LogEmitted{2, "hello"}});

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string out = os.str();

  EXPECT_NE(out.find("mcsim_sim_events_scheduled_total 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_transfers_finished_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_transfer_bytes_total 2048\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_tasks_finished_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_storage_puts_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_storage_resident_bytes 100\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_log_messages_total 1\n"), std::string::npos);
  // Task 7 waited 3 s (ready at 2, started at 5) and executed for 10 s.
  EXPECT_NE(out.find("mcsim_task_wait_seconds_sum 3\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_task_exec_seconds_sum 10\n"), std::string::npos);
}

TEST(MetricsSink, DeclinesTransferProgress) {
  MetricsRegistry reg;
  MetricsSink sink(reg);
  EXPECT_FALSE(sink.accepts(EventKind::TransferProgress));
  EXPECT_TRUE(sink.accepts(EventKind::TransferStarted));
}

TEST(MetricsSink, AcceptsExactlyTheKindsItFolds) {
  // A faulted run: crashes, retries, storage and link outages on top of the
  // ordinary task, transfer, storage and billing traffic.
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  engine::EngineConfig cfg;
  cfg.processors = 8;
  cfg.mode = engine::DataMode::DynamicCleanup;
  cfg.faults.processor.mtbfSeconds = 2000.0;
  cfg.faults.retry.maxRetries = 8;
  cfg.faults.retry.delaySeconds = 5.0;
  cfg.faults.storage.outages = {{300.0, 120.0}, {1500.0, 60.0}};
  cfg.faults.link.outages = {{800.0, 90.0}};
  CollectingSink stream;
  cfg.observer = &stream;
  engine::simulateWorkflow(wf, cfg);

  // One sink folds the whole stream; the other sees it through a FanOutSink,
  // which honours accepts().  An over-narrow accepts() would drop events the
  // first sink counts.
  MetricsRegistry wholeReg;
  MetricsSink whole(wholeReg);
  MetricsRegistry filteredReg;
  MetricsSink filtered(filteredReg);
  FanOutSink fan({&filtered});
  EventKindSet seen;
  for (const Event& e : stream.events()) {
    whole.onEvent(e);
    fan.onEvent(e);
    seen = seen.with(kind(e));
  }
  EXPECT_EQ(exposition(filteredReg), exposition(wholeReg));
  for (EventKind k :
       {EventKind::StorageOutageStarted, EventKind::TaskRetryScheduled,
        EventKind::LinkSuspended, EventKind::BillingLineItem,
        EventKind::StageInStarted, EventKind::ProcessorCrashed})
    EXPECT_TRUE(seen.contains(k)) << eventName(k);

  // An over-broad accepts() would make the runner capture for nothing.
  for (EventKind k :
       {EventKind::TransferProgress, EventKind::LinkSuspended,
        EventKind::LinkResumed, EventKind::RunStarted, EventKind::RunFinished,
        EventKind::StageInStarted, EventKind::StageInFinished,
        EventKind::StageOutStarted, EventKind::StageOutFinished,
        EventKind::BillingLineItem, EventKind::TaskRetryScheduled,
        EventKind::StorageOutageStarted, EventKind::StorageOutageEnded,
        EventKind::DeadlineExceeded, EventKind::JobStarted})
    EXPECT_FALSE(whole.accepts(k)) << eventName(k);
  EXPECT_TRUE(whole.accepts(EventKind::ScenarioCacheStats));
  EXPECT_TRUE(whole.accepts(EventKind::JobFinished));
}

}  // namespace
}  // namespace mcsim::obs
